//go:build !msgpoison

package netsim

func (m *Message) release() {
	*m = Message{}
	msgPool.Put(m)
}
