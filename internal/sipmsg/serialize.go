package sipmsg

import (
	"bytes"
	"strconv"
	"sync"
)

// AppendTo appends the wire form of the message to buf and returns the
// extended slice. Content-Length is always recomputed from Body, so callers
// never need to maintain it. AppendTo allocates only when buf lacks
// capacity; it does not consult or populate the serialized-form cache.
func (m *Message) AppendTo(buf []byte) []byte {
	if m.IsRequest {
		buf = append(buf, string(m.Method)...)
		buf = append(buf, ' ')
		buf = m.RequestURI.appendTo(buf)
		buf = append(buf, ' ')
		buf = append(buf, SIPVersion...)
	} else {
		buf = append(buf, SIPVersion...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(m.StatusCode), 10)
		buf = append(buf, ' ')
		buf = append(buf, m.Reason...)
	}
	buf = append(buf, '\r', '\n')
	for i := range m.Headers {
		h := &m.Headers[i]
		if h.Name == "Content-Length" {
			continue // recomputed below
		}
		buf = append(buf, h.Name...)
		buf = append(buf, ':', ' ')
		buf = append(buf, h.Value...)
		buf = append(buf, '\r', '\n')
	}
	buf = append(buf, "Content-Length: "...)
	buf = strconv.AppendInt(buf, int64(len(m.Body)), 10)
	buf = append(buf, "\r\n\r\n"...)
	buf = append(buf, m.Body...)
	return buf
}

// Serialize renders the message in wire format. The result is cached on the
// message until a mutation invalidates it, so forwarding, retransmission,
// and IPC reuse the same bytes instead of rebuilding them. The returned
// slice is shared: callers may write it to sockets but must not modify or
// append to it.
func (m *Message) Serialize() []byte {
	m.serMu.Lock()
	defer m.serMu.Unlock()
	if m.wireOK {
		return m.wire
	}
	if cap(m.wire) == 0 {
		m.wire = make([]byte, 0, estimateSize(m))
	}
	m.wire = m.AppendTo(m.wire[:0])
	m.wireOK = true
	return m.wire
}

// WireBuf is the wire form of one message in a buffer on loan from a pool:
// Bytes is valid until Release.
type WireBuf struct{ Bytes []byte }

var wireBufs = sync.Pool{New: func() any { return new(WireBuf) }}

// RenderWire serializes m into a pooled buffer, for send paths that write
// the bytes out (or copy them into a batch) before returning. Unlike
// Serialize it allocates nothing per send and leaves no wire image attached
// to the message — which, for a final response the transaction table keeps
// for replay, would otherwise stay resident for the whole linger window.
func (m *Message) RenderWire() *WireBuf {
	w := wireBufs.Get().(*WireBuf)
	w.Bytes = m.AppendTo(w.Bytes[:0])
	return w
}

// Release returns the buffer to the pool; Bytes must not be used afterwards.
func (w *WireBuf) Release() {
	if cap(w.Bytes) <= maxPooledBuffer {
		wireBufs.Put(w)
	}
}

// WriteTo renders the message into buf in wire format.
func (m *Message) WriteTo(buf *bytes.Buffer) {
	buf.Write(m.Serialize())
}

func estimateSize(m *Message) int {
	n := 64 + len(m.Body)
	if m.raw != "" {
		// Parsed message: the retained head is a tight upper bound for the
		// re-rendered head.
		return n + len(m.raw) + 16
	}
	for i := range m.Headers {
		n += len(m.Headers[i].Name) + len(m.Headers[i].Value) + 4
	}
	return n
}

// String renders the full wire form; useful in tests and examples.
func (m *Message) String() string { return string(m.Serialize()) }
