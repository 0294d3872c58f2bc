//go:build msgpoison

package runtime

// Test builds only (-tags msgpoison): putWireBuf fills the buffer with
// 0xEE and never recycles it, so a payload kept past its terminal
// consumer reads poison instead of the next op's bytes.
func putWireBuf(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xEE
	}
}
