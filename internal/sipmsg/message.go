// Package sipmsg implements a SIP (RFC 3261) message model: parsing,
// serialization, header manipulation, and stream framing for
// connection-oriented transports.
//
// The package is deliberately self-contained (stdlib only) and covers the
// subset of SIP exercised by a proxy handling REGISTER, INVITE, ACK, and BYE
// transactions, which is the workload studied by Ram et al. (ISPASS 2008).
package sipmsg

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Method is a SIP request method.
type Method string

// The SIP methods used by the proxy workloads in this repository.
const (
	INVITE   Method = "INVITE"
	ACK      Method = "ACK"
	BYE      Method = "BYE"
	CANCEL   Method = "CANCEL"
	REGISTER Method = "REGISTER"
	OPTIONS  Method = "OPTIONS"
)

// IsValid reports whether m is one of the methods this stack understands.
func (m Method) IsValid() bool {
	switch m {
	case INVITE, ACK, BYE, CANCEL, REGISTER, OPTIONS:
		return true
	}
	return false
}

// Common SIP status codes.
const (
	StatusTrying              = 100
	StatusRinging             = 180
	StatusOK                  = 200
	StatusBadRequest          = 400
	StatusUnauthorized        = 401
	StatusNotFound            = 404
	StatusRequestTimeout      = 408
	StatusTemporarilyUnavail  = 480
	StatusTransactionNotFound = 481
	StatusLoopDetected        = 482
	StatusTooManyHops         = 483
	StatusBusyHere            = 486
	StatusRequestTerminated   = 487
	StatusServerError         = 500
	StatusNotImplemented      = 501
	StatusServiceUnavail      = 503
)

// StatusText returns the canonical reason phrase for a status code.
func StatusText(code int) string {
	switch code {
	case StatusTrying:
		return "Trying"
	case StatusRinging:
		return "Ringing"
	case StatusOK:
		return "OK"
	case StatusBadRequest:
		return "Bad Request"
	case StatusUnauthorized:
		return "Unauthorized"
	case StatusNotFound:
		return "Not Found"
	case StatusRequestTimeout:
		return "Request Timeout"
	case StatusTemporarilyUnavail:
		return "Temporarily Unavailable"
	case StatusTransactionNotFound:
		return "Call/Transaction Does Not Exist"
	case StatusLoopDetected:
		return "Loop Detected"
	case StatusTooManyHops:
		return "Too Many Hops"
	case StatusBusyHere:
		return "Busy Here"
	case StatusRequestTerminated:
		return "Request Terminated"
	case StatusServerError:
		return "Server Internal Error"
	case StatusNotImplemented:
		return "Not Implemented"
	case StatusServiceUnavail:
		return "Service Unavailable"
	}
	return "Unknown"
}

// SIPVersion is the only protocol version this stack speaks.
const SIPVersion = "SIP/2.0"

// Header is a single SIP header field. Order of headers is significant in
// SIP (notably for Via), so Message keeps headers as an ordered slice.
type Header struct {
	Name  string // canonical name, e.g. "Via"
	Value string // raw value, unparsed
}

// Message is a parsed SIP request or response.
//
// A Message is a request when IsRequest is true: Method and RequestURI are
// meaningful. Otherwise it is a response and StatusCode/Reason are
// meaningful. Headers preserves receive order. Body holds the (possibly
// empty) message body; Content-Length is maintained by Serialize.
//
// Parsed messages keep a single retained copy of the wire head (raw);
// header names, values, and URI components are substrings of it, so the
// parser performs one copy per message instead of one per field. raw is an
// immutable Go string: substrings that escape the message (transaction
// keys, location bindings, response headers copied from a request) stay
// valid even after the Message itself is released back to the pool.
//
// Mutating a header through Set/Add/Prepend/Del/RemoveFirst invalidates
// the cached serialized form. Code that writes exported fields directly
// (Method, Body, ...) after the message has been serialized must call
// Invalidate.
type Message struct {
	IsRequest  bool
	Method     Method // requests only
	RequestURI URI    // requests only
	StatusCode int    // responses only
	Reason     string // responses only

	Headers []Header
	Body    []byte

	// raw is the retained copy of the received start line + headers that
	// Headers/RequestURI views point into. Empty for built messages.
	raw string

	// bodyBuf is the message-owned buffer Body is parsed into; it is kept
	// across pool cycles so reparsing reuses its capacity.
	bodyBuf []byte

	// Cached serialized wire form, shared by every send site (forwarding,
	// retransmission, IPC) until a mutation invalidates it. serMu makes
	// concurrent Serialize calls safe: two workers may replay the same
	// stored response at once.
	serMu  sync.Mutex
	wire   []byte
	wireOK bool

	// Pool lifecycle. pooled marks messages obtained from Get (directly or
	// via Parse/StreamParser); refs counts owners. Release on a non-pooled
	// message is a no-op, so built messages need no lifecycle discipline.
	pooled bool
	refs   atomic.Int32

	// trace is an opaque per-call tracing context riding the message (see
	// internal/trace; stored as any to keep this package stdlib-only).
	// traceOwned marks the message as the context's owner: owned contexts
	// are handed to TraceRelease when the last reference drops, borrowed
	// ones (a forwarded copy sharing its original's context) are not.
	trace      any
	traceOwned bool
}

// TraceRelease, when set (by internal/trace), recycles an owned tracing
// context as its message returns to the pool.
var TraceRelease func(any)

// AttachTrace stores a tracing context the message owns: it is released
// through TraceRelease when the message's last reference drops.
func (m *Message) AttachTrace(v any) {
	m.trace = v
	m.traceOwned = true
}

// BorrowTrace stores a tracing context owned by another message, so send
// paths handling a derived copy can still reach the original's timeline.
func (m *Message) BorrowTrace(v any) {
	m.trace = v
	m.traceOwned = false
}

// DisownTrace turns an owned tracing context into a borrowed one: the
// message keeps pointing at it but no longer recycles it with its last
// Release. The transaction table calls it on a request it stores, whose
// timeline is still written to (the final's replays, a retransmission
// span) after the pooled request has gone back to the pool.
func (m *Message) DisownTrace() { m.traceOwned = false }

// TraceContext returns the riding tracing context, or nil.
func (m *Message) TraceContext() any { return m.trace }

// Buffers larger than these are dropped at Release instead of being
// retained by the pool, so one oversized message cannot pin memory.
const (
	maxPooledHeaders = 256
	maxPooledBuffer  = 16 << 10
)

var msgPool = sync.Pool{New: func() any { return new(Message) }}

// The pool's ledger: messages handed out by Get and messages whose last
// reference came back through Release. A double Release panics; a Release
// that never happens shows up here.
var poolGets, poolPuts atomic.Int64

// PoolOutstanding returns how many pooled messages are currently held by
// someone: handed out and not yet fully released. On an idle process it is
// zero; a value that climbs with traffic is a leaked reference.
func PoolOutstanding() int64 {
	// Puts first: a message released between the two loads must not read
	// as a negative count.
	puts := poolPuts.Load()
	return poolGets.Load() - puts
}

// Get returns an empty Message from the pool with one reference held by
// the caller. Pair it with Release; Parse and StreamParser.Next use it
// internally, so every received message participates in the pool.
func Get() *Message {
	poolGets.Add(1)
	m := msgPool.Get().(*Message)
	m.pooled = true
	m.refs.Store(1)
	return m
}

// Pooled reports whether m came out of the pool (Get, Parse, a Reader) and is
// therefore recycled at its last Release, as opposed to a built message,
// which belongs to the garbage collector.
func (m *Message) Pooled() bool { return m.pooled }

// Retain adds a reference so the message survives the receive loop's
// Release (the transaction table retains stored requests). No-op for
// built (non-pooled) messages. Returns m for chaining.
func (m *Message) Retain() *Message {
	if m != nil && m.pooled {
		m.refs.Add(1)
	}
	return m
}

// Release drops one reference; when the last reference is gone the message
// is reset and returned to the pool. Release on a nil or non-pooled
// message is a no-op, so callers can release unconditionally. After the
// final Release the caller must not touch the Message again — though
// strings previously obtained from it remain valid (they alias the
// immutable raw copy, which the pool never reuses).
func (m *Message) Release() {
	if m == nil || !m.pooled {
		return
	}
	n := m.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("sipmsg: Release of already released Message")
	}
	m.reset()
	msgPool.Put(m)
	poolPuts.Add(1)
}

// reset clears the message for pool reuse, keeping modestly sized buffers.
func (m *Message) reset() {
	m.IsRequest = false
	m.Method = ""
	m.RequestURI = URI{}
	m.StatusCode = 0
	m.Reason = ""
	if cap(m.Headers) > maxPooledHeaders {
		m.Headers = nil
	} else {
		m.Headers = m.Headers[:0]
	}
	m.Body = nil
	if cap(m.bodyBuf) > maxPooledBuffer {
		m.bodyBuf = nil
	}
	m.raw = ""
	if m.trace != nil {
		if m.traceOwned && TraceRelease != nil {
			TraceRelease(m.trace)
		}
		m.trace = nil
		m.traceOwned = false
	}
	// With no references left, no caller can still hold the cached wire
	// slice, so its capacity is safe to reuse.
	if cap(m.wire) > maxPooledBuffer {
		m.wire = nil
	} else {
		m.wire = m.wire[:0]
	}
	m.wireOK = false
}

// Invalidate drops the cached serialized form. Header mutators call it
// automatically; it is required only after writing exported fields
// (Method, Body, RequestURI, ...) directly on a message that may already
// have been serialized.
func (m *Message) Invalidate() {
	m.serMu.Lock()
	if m.wireOK {
		// Do not reuse the old buffer: a previously returned Serialize
		// slice may still be on its way to a socket.
		m.wire = nil
		m.wireOK = false
	}
	m.serMu.Unlock()
}

// IsResponse reports whether m is a response.
func (m *Message) IsResponse() bool { return !m.IsRequest }

// canonicalNames lists the canonical spellings the parser recognizes
// without allocating; lookup is case-insensitive via EqualFold.
var canonicalNames = [...]string{
	"Via", "From", "To", "Call-ID", "Contact", "Content-Length",
	"Content-Type", "Content-Encoding", "Supported", "Subject", "CSeq",
	"Max-Forwards", "Expires", "Route", "Record-Route", "User-Agent",
	"WWW-Authenticate", "Authorization", "Proxy-Authenticate",
	"Proxy-Authorization",
}

// lookupCanonical resolves a trimmed header name (including RFC 3261
// compact forms) to its canonical constant without allocating.
func lookupCanonical(name string) (string, bool) {
	// Exact-case match first: our own serializer and most real stacks emit
	// canonical capitalization, and the compiler turns this switch into a
	// length-bucketed comparison far cheaper than the EqualFold scan below.
	switch name {
	case "Via", "From", "To", "Call-ID", "Contact", "Content-Length",
		"Content-Type", "Content-Encoding", "Supported", "Subject", "CSeq",
		"Max-Forwards", "Expires", "Route", "Record-Route", "User-Agent",
		"WWW-Authenticate", "Authorization", "Proxy-Authenticate",
		"Proxy-Authorization":
		return name, true
	}
	if len(name) == 1 {
		switch name[0] | 0x20 { // ASCII lowercase
		case 'v':
			return "Via", true
		case 'f':
			return "From", true
		case 't':
			return "To", true
		case 'i':
			return "Call-ID", true
		case 'm':
			return "Contact", true
		case 'l':
			return "Content-Length", true
		case 'c':
			return "Content-Type", true
		case 'e':
			return "Content-Encoding", true
		case 'k':
			return "Supported", true
		case 's':
			return "Subject", true
		}
		return "", false
	}
	for _, c := range &canonicalNames {
		if len(c) == len(name) && strings.EqualFold(c, name) {
			return c, true
		}
	}
	return "", false
}

// canonicalName maps header names (including RFC 3261 compact forms) to
// their canonical capitalization so lookups are case-insensitive. Known
// names resolve to shared constants without allocating; unknown names are
// title-cased per hyphenated part.
func canonicalName(name string) string {
	name = strings.TrimSpace(name)
	if c, ok := lookupCanonical(name); ok {
		return c
	}
	// Title-case each hyphen-separated part.
	parts := strings.Split(name, "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + strings.ToLower(p[1:])
	}
	return strings.Join(parts, "-")
}

// Get returns the value of the first header with the given name (case- and
// compact-form-insensitive) and whether it was present.
func (m *Message) Get(name string) (string, bool) {
	cn := canonicalName(name)
	for i := range m.Headers {
		if m.Headers[i].Name == cn {
			return m.Headers[i].Value, true
		}
	}
	return "", false
}

// GetAll returns the values of every header with the given name, in order.
func (m *Message) GetAll(name string) []string {
	cn := canonicalName(name)
	var out []string
	for i := range m.Headers {
		if m.Headers[i].Name == cn {
			out = append(out, m.Headers[i].Value)
		}
	}
	return out
}

// Set replaces the first header with the given name, or appends it if absent.
func (m *Message) Set(name, value string) {
	m.Invalidate()
	cn := canonicalName(name)
	for i := range m.Headers {
		if m.Headers[i].Name == cn {
			m.Headers[i].Value = value
			return
		}
	}
	m.Headers = append(m.Headers, Header{Name: cn, Value: value})
}

// Add appends a header without replacing existing ones with the same name.
func (m *Message) Add(name, value string) {
	m.Invalidate()
	m.Headers = append(m.Headers, Header{Name: canonicalName(name), Value: value})
}

// Prepend inserts a header before all existing headers. SIP proxies use this
// to push a Via on the top of the Via stack.
func (m *Message) Prepend(name, value string) {
	m.Invalidate()
	cn := canonicalName(name)
	m.Headers = append(m.Headers, Header{})
	copy(m.Headers[1:], m.Headers)
	m.Headers[0] = Header{Name: cn, Value: value}
}

// Del removes every header with the given name and returns how many were
// removed.
func (m *Message) Del(name string) int {
	m.Invalidate()
	cn := canonicalName(name)
	n := 0
	out := m.Headers[:0]
	for _, h := range m.Headers {
		if h.Name == cn {
			n++
			continue
		}
		out = append(out, h)
	}
	m.Headers = out
	return n
}

// RemoveFirst removes the first header with the given name and reports
// whether one was removed. Proxies use this to pop the topmost Via from a
// response before forwarding it upstream.
func (m *Message) RemoveFirst(name string) bool {
	m.Invalidate()
	cn := canonicalName(name)
	for i := range m.Headers {
		if m.Headers[i].Name == cn {
			m.Headers = append(m.Headers[:i], m.Headers[i+1:]...)
			return true
		}
	}
	return false
}

// CallID returns the Call-ID header value.
func (m *Message) CallID() string {
	v, _ := m.Get("Call-ID")
	return v
}

// CSeq returns the parsed CSeq header (sequence number and method).
func (m *Message) CSeq() (uint32, Method, error) {
	v, ok := m.Get("CSeq")
	if !ok {
		return 0, "", fmt.Errorf("sipmsg: missing CSeq")
	}
	return ParseCSeq(v)
}

// ParseCSeq parses a CSeq header value of the form "<seq> <METHOD>". It
// does not allocate when the method is spelled in upper case.
func ParseCSeq(v string) (uint32, Method, error) {
	num, rest := nextField(v)
	method, rest := nextField(rest)
	if extra, _ := nextField(rest); method == "" || extra != "" {
		return 0, "", fmt.Errorf("sipmsg: malformed CSeq %q", v)
	}
	n, err := strconv.ParseUint(num, 10, 32)
	if err != nil {
		return 0, "", fmt.Errorf("sipmsg: malformed CSeq number %q: %v", num, err)
	}
	return uint32(n), Method(strings.ToUpper(method)), nil
}

// nextField splits off the first run of non-whitespace in s.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) && asciiSpace(s[i]) {
		i++
	}
	j := i
	for j < len(s) && !asciiSpace(s[j]) {
		j++
	}
	return s[i:j], s[j:]
}

// MaxForwards returns the Max-Forwards value, or def when absent/garbled.
func (m *Message) MaxForwards(def int) int {
	v, ok := m.Get("Max-Forwards")
	if !ok {
		return def
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n < 0 {
		return def
	}
	return n
}

// TopVia returns the first Via header parsed, or an error if absent or
// malformed.
func (m *Message) TopVia() (Via, error) {
	v, ok := m.Get("Via")
	if !ok {
		return Via{}, fmt.Errorf("sipmsg: missing Via")
	}
	return ParseVia(v)
}

// FromTag and ToTag extract the tag parameter of the From/To headers;
// empty string when absent.
func (m *Message) FromTag() string { return tagOf(m, "From") }

// ToTag returns the tag parameter of the To header, or "".
func (m *Message) ToTag() string { return tagOf(m, "To") }

func tagOf(m *Message, name string) string {
	v, ok := m.Get(name)
	if !ok {
		return ""
	}
	na, err := ParseNameAddr(v)
	if err != nil {
		return ""
	}
	return na.Params["tag"]
}

// TopViaBranch returns the branch parameter of the first Via header ("" when
// it has none), or an error if the Via is absent or malformed: TopVia
// followed by Branch, without the parameter map.
func (m *Message) TopViaBranch() (string, error) {
	v, ok := m.Get("Via")
	if !ok {
		return "", fmt.Errorf("sipmsg: missing Via")
	}
	return viaBranch(v)
}

// TransactionID returns what identifies the transaction a message belongs
// to under the RFC 3261 §17.2.3 rule for z9hG4bK branches: the top Via's
// branch and the CSeq method. MatchParts-style lookups take the two parts
// as they are; TransactionKey joins them.
func (m *Message) TransactionID() (branch string, method Method, err error) {
	branch, err = m.TopViaBranch()
	if err != nil {
		return "", "", err
	}
	if branch == "" {
		return "", "", fmt.Errorf("sipmsg: top Via has no branch")
	}
	_, method, err = m.CSeq()
	return branch, method, err
}

// TransactionKey identifies the transaction a message belongs to, following
// the RFC 3261 §17.2.3 rule for z9hG4bK branches: top Via branch + CSeq
// method (so that an ACK for a non-2xx response matches its INVITE's
// transaction; a CANCEL constructs its own server transaction and keys as
// itself — callers cancel the INVITE by looking up branch+INVITE).
func (m *Message) TransactionKey() (string, error) {
	branch, method, err := m.TransactionID()
	if err != nil {
		return "", err
	}
	return JoinTransactionKey(branch, method), nil
}

// JoinTransactionKey renders the "branch|METHOD" key of a transaction
// whose parts are already in hand.
func JoinTransactionKey(branch string, method Method) string {
	return branch + "|" + string(TransactionMethod(method))
}

// TransactionMethod maps a CSeq method to the method its transaction is
// keyed by: an ACK for a non-2xx response matches its INVITE's server
// transaction; everything else — including CANCEL, which per §17.2.3 forms
// its own transaction with its own response path — keys as itself.
func TransactionMethod(method Method) Method {
	if method == ACK {
		return INVITE
	}
	return method
}

// Clone returns a deep copy of the message. Clones are always built
// (non-pooled) messages with no cached wire form, independent of the
// original's lifecycle.
func (m *Message) Clone() *Message { return m.CloneWithHeadroom(0) }

// CloneWithHeadroom is Clone with room for extra more headers, so that a
// proxy pushing its Via (and Record-Route) onto the copy does not grow the
// header slice a second time.
func (m *Message) CloneWithHeadroom(extra int) *Message {
	c := m.cloneHead()
	c.Headers = make([]Header, len(m.Headers), len(m.Headers)+extra)
	copy(c.Headers, m.Headers)
	return c
}

// CloneWithoutTopVia is Clone minus the first Via header: the copy of a
// response a proxy relays upstream, allocated at its final size. It returns
// nil when m has no Via.
func (m *Message) CloneWithoutTopVia() *Message {
	for i := range m.Headers {
		if m.Headers[i].Name == "Via" {
			c := m.cloneHead()
			c.Headers = make([]Header, len(m.Headers)-1)
			copy(c.Headers[copy(c.Headers, m.Headers[:i]):], m.Headers[i+1:])
			return c
		}
	}
	return nil
}

// cloneHead copies everything of m but its headers into a new built message.
func (m *Message) cloneHead() *Message {
	c := &Message{
		IsRequest:  m.IsRequest,
		Method:     m.Method,
		RequestURI: m.RequestURI,
		StatusCode: m.StatusCode,
		Reason:     m.Reason,
	}
	if m.Body != nil {
		c.Body = make([]byte, len(m.Body))
		copy(c.Body, m.Body)
	}
	return c
}

// ShortString renders a one-line summary useful in logs and tests.
func (m *Message) ShortString() string {
	if m.IsRequest {
		return fmt.Sprintf("%s %s", m.Method, m.RequestURI.String())
	}
	return fmt.Sprintf("%d %s", m.StatusCode, m.Reason)
}
