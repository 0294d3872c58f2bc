//go:build !msgpoison

package runtime

// putWireBuf returns a pooled buffer to its class. Callers pass exactly
// the buffers wireBuf marked pooled (tracked via Message.PayloadPooled),
// still starting at the array's first byte.
func putWireBuf(b []byte) {
	if cap(b) == wireBufSmall {
		smallWireBufPool.Put((*[wireBufSmall]byte)(b[:wireBufSmall]))
		return
	}
	wireBufPool.Put((*[wireBufCap]byte)(b[:wireBufCap]))
}
