//go:build !msgpoison

package runtime

// msgPoison reports a -tags msgpoison build: released messages and wire
// buffers are poisoned instead of recycled.
const msgPoison = false
