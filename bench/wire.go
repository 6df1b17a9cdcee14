//go:build linux

package main

import (
	"bytes"
	"errors"
	"io"
	"strconv"
)

// msgView is the little of a SIP message the generator looks at: enough to
// answer a request and to check a response. It aliases the bytes it was
// scanned from and is owned by bench/, so nothing here moves when the
// proxy's own parser is rewritten.
type msgView struct {
	isRequest bool
	method    []byte // request line method
	uriUser   []byte // user part of a sip: Request-URI
	status    int    // response status code

	vias   [4][]byte // Via values top to bottom; nvia counts all Vias seen
	nvia   int
	from   []byte
	to     []byte
	callID []byte
	cseq   []byte
	maxFwd []byte
	auth   []byte // WWW-Authenticate
}

var (
	errShort   = errors.New("message ends before the blank line")
	errStart   = errors.New("malformed start line")
	crlf       = []byte("\r\n")
	headEnd    = []byte("\r\n\r\n")
	sipVersion = []byte("SIP/2.0")
)

// scan fills v from one whole message.
func (v *msgView) scan(b []byte) error {
	*v = msgView{}
	eol := bytes.Index(b, crlf)
	if eol < 0 {
		return errShort
	}
	line := b[:eol]
	if bytes.HasPrefix(line, sipVersion) {
		// SIP/2.0 200 OK
		if len(line) < 12 || line[7] != ' ' {
			return errStart
		}
		code, err := strconv.Atoi(string(line[8:11]))
		if err != nil {
			return errStart
		}
		v.status = code
	} else {
		// INVITE sip:user@host SIP/2.0
		sp := bytes.IndexByte(line, ' ')
		if sp <= 0 || !bytes.HasSuffix(line, sipVersion) {
			return errStart
		}
		v.isRequest = true
		v.method = line[:sp]
		uri := line[sp+1 : len(line)-len(sipVersion)-1]
		if at := bytes.IndexByte(uri, '@'); at > 4 && bytes.HasPrefix(uri, []byte("sip:")) {
			v.uriUser = uri[4:at]
		}
	}
	rest := b[eol+2:]
	for {
		eol = bytes.Index(rest, crlf)
		if eol < 0 {
			return errShort
		}
		if eol == 0 {
			return nil
		}
		line, rest = rest[:eol], rest[eol+2:]
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			continue
		}
		name, val := bytes.TrimSpace(line[:colon]), bytes.TrimSpace(line[colon+1:])
		switch {
		case headerIs(name, "via", 'v'):
			if v.nvia < len(v.vias) {
				v.vias[v.nvia] = val
			}
			v.nvia++
		case headerIs(name, "from", 'f'):
			v.from = val
		case headerIs(name, "to", 't'):
			v.to = val
		case headerIs(name, "call-id", 'i'):
			v.callID = val
		case headerIs(name, "cseq", 0):
			v.cseq = val
		case headerIs(name, "max-forwards", 0):
			v.maxFwd = val
		case headerIs(name, "www-authenticate", 0):
			v.auth = val
		}
	}
}

// headerIs matches a header name case-insensitively against its long form
// (given in lower case) or its RFC 3261 compact form.
func headerIs(name []byte, long string, compact byte) bool {
	if len(name) == 1 && compact != 0 {
		return name[0]|0x20 == compact
	}
	if len(name) != len(long) {
		return false
	}
	for i := range name {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		if c != long[i] {
			return false
		}
	}
	return true
}

// authParam extracts a quoted parameter (realm, nonce) from a Digest
// challenge value.
func authParam(challenge []byte, key string) []byte {
	i := bytes.Index(challenge, []byte(key+`="`))
	if i < 0 {
		return nil
	}
	val := challenge[i+len(key)+2:]
	end := bytes.IndexByte(val, '"')
	if end < 0 {
		return nil
	}
	return val[:end]
}

// streamFramer cuts a byte stream into SIP messages by Content-Length
// (RFC 3261 §18.3). The returned slice is valid until the next call.
type streamFramer struct {
	r    io.Reader
	buf  []byte
	r0   int // start of unread bytes
	r1   int // end of unread bytes
	last int // length of the message returned by the previous call
}

func newStreamFramer(r io.Reader) *streamFramer {
	return &streamFramer{r: r, buf: make([]byte, 16<<10)}
}

func (f *streamFramer) next() ([]byte, error) {
	f.r0 += f.last
	f.last = 0
	for {
		if n := frameLen(f.buf[f.r0:f.r1]); n > 0 {
			f.last = n
			return f.buf[f.r0 : f.r0+n], nil
		} else if n < 0 {
			return nil, errors.New("stream message without a usable Content-Length")
		}
		if f.r0 > 0 {
			f.r1 = copy(f.buf, f.buf[f.r0:f.r1])
			f.r0 = 0
		}
		if f.r1 == len(f.buf) {
			return nil, errors.New("stream message larger than the frame buffer")
		}
		n, err := f.r.Read(f.buf[f.r1:])
		f.r1 += n
		if n == 0 && err != nil {
			return nil, err
		}
	}
}

// frameLen reports the length of the first whole message in b, 0 when more
// bytes are needed, or -1 when the head carries no Content-Length.
func frameLen(b []byte) int {
	end := bytes.Index(b, headEnd)
	if end < 0 {
		return 0
	}
	head := b[:end+2]
	for len(head) > 0 {
		eol := bytes.Index(head, crlf)
		line := head[:eol]
		head = head[eol+2:]
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !headerIs(bytes.TrimSpace(line[:colon]), "content-length", 'l') {
			continue
		}
		n, err := strconv.Atoi(string(bytes.TrimSpace(line[colon+1:])))
		if err != nil || n < 0 {
			return -1
		}
		if total := end + 4 + n; total <= len(b) {
			return total
		}
		return 0
	}
	return -1
}
