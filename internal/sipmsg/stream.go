package sipmsg

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// readBufSize is a pooled read buffer's length: several of the workload's
// messages, so one read(2) drains what a pipelining peer sent.
const readBufSize = 4 << 10

// maxFrame is the longest message the framer can hold pending: a head at
// its limit, the blank line and a body at its limit. A partial message
// grows its buffer up to here and no further.
const maxFrame = MaxHeaderBytes + 4 + MaxBodyBytes

var (
	readBufPool  = sync.Pool{New: func() any { b := make([]byte, readBufSize); return &b }}
	readBufLoans atomic.Int64
)

// ReadBuffersOnLoan returns how many Readers hold a read buffer right now:
// one per connection with bytes pending, and one per reader inside a read
// from a source without a descriptor (TLS). It is process-wide and reads
// zero on a server whose connections are open and quiet.
func ReadBuffersOnLoan() int64 { return readBufLoans.Load() }

// Reader frames SIP messages out of a byte stream: the read half of a TCP
// or TLS SIP connection. SIP over a stream transport is delimited by the
// blank line ending the headers plus Content-Length (RFC 3261 §18.3
// requires it on stream transports; a missing one counts as zero).
// Malformed framing is fatal: the message boundaries are lost, so the
// connection must be dropped.
//
// A Reader holds a read buffer only while bytes are pending. It borrows
// one from a process-wide pool to read, frames messages out of that same
// buffer, and gives it back as soon as no partial message is left in it.
// When the source has a descriptor (a plain TCP connection) the wait for
// readability holds no buffer either: the reader borrows one for the
// read(2) call alone and, when the socket has nothing yet, gives it back
// before it parks in the runtime's poller. Any other source (TLS, an
// in-memory pipe) is read with Read, which holds the buffer while it
// blocks.
//
// A Reader is not safe for concurrent use: in the proxy each connection
// has exactly one reader goroutine, mirroring OpenSER's invariant that a
// single worker process receives from a given TCP connection. That
// goroutine owns the buffer, and calls Release when it stops reading.
type Reader struct {
	src    io.Reader
	rc     syscall.RawConn    // src's descriptor; nil when it has none
	readFn func(uintptr) bool // r.rawRead, bound once
	obs    func(*Message, time.Duration)

	buf        *[]byte // on loan from readBufPool; nil when nothing is pending
	head, tail int     // the pending bytes are (*buf)[head:tail]
	need       int     // bytes the partial message at head spans, once its head parsed
	err        error   // sticky: every failure but a timeout

	rn   int   // rawRead's result
	rerr error // rawRead's error
}

// NewReader wraps r for SIP message framing.
func NewReader(r io.Reader) *Reader {
	rd := &Reader{src: r, rc: rawConnOf(r)}
	if rd.rc != nil {
		rd.readFn = rd.rawRead
	}
	return rd
}

// SetParseObserver registers fn to receive each delivered message along
// with its CPU-side framing/parsing time, excluding blocked socket reads.
// The message is passed so per-call instrumentation (tracing) can attach
// state before the receive loop sees it. nil disables. Not safe to call
// concurrently with ReadMessage.
func (r *Reader) SetParseObserver(fn func(*Message, time.Duration)) { r.obs = fn }

// ReadMessage blocks until a complete SIP message arrives or the source
// fails. A framing error, end of stream or a failed read is final, and
// gives the buffer back; a timeout keeps a partial message pending, so the
// caller may extend the deadline and read on.
func (r *Reader) ReadMessage() (*Message, error) {
	if r.err != nil {
		return nil, r.err
	}
	var spent time.Duration
	for {
		if r.buf != nil && r.tail-r.head >= r.need {
			var t0 time.Time
			if r.obs != nil {
				t0 = time.Now()
			}
			m, err := r.frame()
			if r.obs != nil {
				spent += time.Since(t0)
			}
			if err != nil {
				return nil, r.fail(err)
			}
			if m != nil {
				if r.obs != nil {
					r.obs(m, spent)
				}
				return m, nil
			}
		}
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
}

// Release gives the reader's buffer back, dropping any partial message.
// Call it from the reading goroutine once it stops reading; a later
// ReadMessage starts from an empty buffer.
func (r *Reader) Release() {
	if r.buf == nil {
		return
	}
	if cap(*r.buf) == readBufSize {
		readBufPool.Put(r.buf)
	}
	r.buf = nil
	r.head, r.tail, r.need = 0, 0, 0
	readBufLoans.Add(-1)
}

func (r *Reader) borrow() {
	r.buf = readBufPool.Get().(*[]byte)
	readBufLoans.Add(1)
}

// fail makes err the reader's answer from now on and gives the buffer back.
func (r *Reader) fail(err error) error {
	r.err = err
	r.Release()
	return err
}

// frame carves the next message out of the pending bytes, skipping CRLF
// keep-alives (RFC 5626) ahead of it. It returns nil and no error while the
// message is incomplete, having recorded in need how long it will be once
// its head has arrived; it gives the buffer back when nothing is left
// pending.
func (r *Reader) frame() (*Message, error) {
	data := (*r.buf)[r.head:r.tail]
	skip := 0
	for skip+1 < len(data) && data[skip] == '\r' && data[skip+1] == '\n' {
		skip += 2
	}
	r.head += skip
	data = data[skip:]
	if len(data) == 0 {
		r.Release()
		return nil, nil
	}
	headEnd := bytes.Index(data, crlfcrlf)
	if headEnd < 0 {
		if len(data) > MaxHeaderBytes {
			return nil, ErrTooLarge
		}
		return nil, nil
	}
	if headEnd > MaxHeaderBytes {
		return nil, ErrTooLarge
	}
	m := Get()
	// The head's one copy: parsed views alias this string, and the buffer
	// goes back to the pool.
	clen, err := parseHeadStr(m, string(data[:headEnd]))
	if err != nil {
		m.Release()
		return nil, err
	}
	total := headEnd + 4 + max(clen, 0)
	if len(data) < total {
		m.Release()
		r.need = total
		return nil, nil
	}
	if clen > 0 {
		m.bodyBuf = append(m.bodyBuf[:0], data[headEnd+4:total]...)
		m.Body = m.bodyBuf
	}
	r.head += total
	r.need = 0
	if r.head == r.tail {
		r.Release()
	}
	return m, nil
}

// fill reads once into the free tail of the buffer, making room first: the
// partial message moves to the front, and a buffer it fills is replaced by
// one twice as long, up to maxFrame.
func (r *Reader) fill() error {
	if r.buf != nil {
		r.makeRoom()
	}
	var n int
	var err error
	if r.rc != nil {
		r.rn, r.rerr = 0, nil
		if err = r.rc.Read(r.readFn); err == nil {
			n, err = r.rn, r.rerr
			if n == 0 && err == nil {
				err = io.EOF
			}
		}
	} else {
		if r.buf == nil {
			r.borrow()
		}
		n, err = r.src.Read((*r.buf)[r.tail:])
	}
	r.tail += n
	if n > 0 {
		return nil
	}
	if r.buf != nil && r.head == r.tail {
		r.Release()
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, os.ErrDeadlineExceeded):
		return err
	case err == io.EOF && r.buf != nil:
		return r.fail(fmt.Errorf("sipmsg: connection closed mid-message (%d bytes buffered)", r.tail-r.head))
	}
	return r.fail(err)
}

func (r *Reader) makeRoom() {
	b := *r.buf
	if r.head > 0 {
		r.tail = copy(b, b[r.head:r.tail])
		r.head = 0
	}
	if r.tail < len(b) {
		return
	}
	grown := make([]byte, min(max(2*len(b), r.need), maxFrame))
	copy(grown, b)
	if cap(b) == readBufSize {
		readBufPool.Put(r.buf)
	}
	r.buf = &grown
}
