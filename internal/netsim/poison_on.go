//go:build msgpoison

package netsim

// Test builds only (-tags msgpoison): Release and PutBuf poison and keep
// nothing (see Recycler).
const msgPoison = true
