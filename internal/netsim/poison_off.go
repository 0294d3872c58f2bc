//go:build !msgpoison

package netsim

const msgPoison = false
