//go:build linux

package main

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The generator is bench/'s own SIP user agents. It speaks to sipproxyd
// over the wire only and relies on one convention of `sipproxyd -users N`:
// subscriber i is "user<i>" with password "secret-user<i>".

const (
	provisioned = 10000           // sipproxyd's -users default, and -users on udp.register
	respTimeout = 2 * time.Second // per transaction, and per dial
	churnEvery  = 50              // tcp.churn: ops per caller connection
	parkedConns = 1000            // tcp.churn: idle connections held open (the paper's connected clients)

	// rotateEvery is how long a TCP caller and its callee keep a connection
	// before replacing it. sipproxyd assigns each accepted connection to a
	// random worker, and which connections share a worker decides how many
	// sends cross workers; with one draw per run, ops_per_s on tcp.baseline
	// spread 24% between runs of one binary. A second is ~5000 ops per
	// connection, a hundred times tcp.churn's, so the connections are still
	// persistent in the paper's sense, and a run averages over its draws.
	rotateEvery = time.Second
)

// reason says why an op was counted as failed.
type reason uint8

const (
	opOK          reason = iota
	failTimeout          // no final response within respTimeout
	failStatus           // final response was not the expected status
	failCallID           // a response carried another Call-ID
	failCSeq             // a response carried another CSeq
	failVia              // a response did not carry exactly the sender's Via
	failMalformed        // bytes that do not scan as the expected kind of message
	failTransport        // socket error
	failCallee           // the request the callee received failed its check
	failAuth             // the digest challenge could not be answered
	nReasons
)

var reasonNames = [nReasons]string{"ok", "timeout", "status", "call_id", "cseq", "via",
	"malformed", "transport", "callee_check", "auth"}

func (r reason) String() string { return reasonNames[r] }

// fatal reports whether the call flow cannot continue after this outcome.
func (r reason) fatal() bool {
	return r == failTimeout || r == failStatus || r == failTransport || r == failAuth
}

// --- endpoint ---------------------------------------------------------

// endpoint is one generator socket: a connected UDP socket or one TCP
// connection to the proxy, driven with blocking system calls from the one
// goroutine that owns it, which is locked to its OS thread. A thread
// blocked in recv costs nothing while it waits and no scheduler spins on
// its behalf, which keeps the generator's CPU per op (the benchmark's
// machine-speed reference, see README.md) nearer to fixed work than Go's
// network poller did: 47 µs against 53 µs on udp.calls.
type endpoint struct {
	network string // "udp" or "tcp"
	fd      int
	framer  *streamFramer // tcp only
	rbuf    []byte        // udp only
	local   string        // host:port the proxy sees
}

// dialEndpoint connects to the proxy; timeout bounds the dial and every
// later recv.
func dialEndpoint(network, proxy string, timeout time.Duration) (*endpoint, error) {
	conn, err := net.DialTimeout(network, proxy, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close() // the endpoint keeps a duplicate of the descriptor
	f, err := conn.(interface{ File() (*os.File, error) }).File()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Fd puts the shared file description into blocking mode.
	fd, err := syscall.Dup(int(f.Fd()))
	if err != nil {
		return nil, err
	}
	e := &endpoint{network: network, fd: fd, local: conn.LocalAddr().String()}
	if err := e.setRecvTimeout(timeout); err != nil {
		e.close()
		return nil, err
	}
	if network == "tcp" {
		e.framer = newStreamFramer(e)
	} else {
		e.rbuf = make([]byte, 64<<10)
	}
	return e, nil
}

// setRecvTimeout bounds every later recv; 0 lets recv block until the
// socket is shut down.
func (e *endpoint) setRecvTimeout(d time.Duration) error {
	tv := syscall.NsecToTimeval(int64(d))
	return syscall.SetsockoptTimeval(e.fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv)
}

func (e *endpoint) send(b []byte) error {
	for len(b) > 0 {
		n, err := syscall.Write(e.fd, b)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

// Read is one blocking read of the socket; the stream framer calls it.
func (e *endpoint) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(e.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, os.ErrDeadlineExceeded // SO_RCVTIMEO ran out
		case err != nil:
			return 0, err
		case n == 0:
			// The peer closed the stream, or shutdown was called on this
			// socket (a UDP recv then returns empty-handed at once).
			return 0, io.EOF
		}
		return n, nil
	}
}

// recv returns the next whole message; the slice is valid until the next
// recv.
func (e *endpoint) recv() ([]byte, error) {
	if e.framer != nil {
		return e.framer.next()
	}
	n, err := e.Read(e.rbuf)
	return e.rbuf[:n], err
}

// shutdown wakes a goroutine blocked in recv on this endpoint; the
// descriptor stays valid until close, which only its owner calls.
func (e *endpoint) shutdown() { _ = syscall.Shutdown(e.fd, syscall.SHUT_RDWR) } // fails only on a socket already gone

func (e *endpoint) close() { _ = syscall.Close(e.fd) } // nothing is buffered in user space

func (e *endpoint) transportToken() string { return strings.ToUpper(e.network) }

// --- templates --------------------------------------------------------

// Per-message variables a template can reference.
const (
	vN     = iota // 10-digit call counter, shared by Call-ID, branch and From tag
	vCSeq         // CSeq number
	vToTag        // callee's To tag, learnt from the 200
	vUser         // udp.register: the AOR being registered
	vNonce        // udp.register: challenge nonce
	vResp         // udp.register: digest response
	nVars
)

var varNames = [nVars]string{"{n}", "{cseq}", "{totag}", "{user}", "{nonce}", "{resp}"}

// tmpl is a message rendered once at set-up with holes for the variables,
// so the measured loop only copies bytes.
type tmpl struct {
	parts [][]byte
	holes []int // holes[i] is the variable that follows parts[i]
}

func compile(text string) tmpl {
	var t tmpl
	for {
		at, which := -1, 0
		for v, name := range varNames {
			if i := strings.Index(text, name); i >= 0 && (at < 0 || i < at) {
				at, which = i, v
			}
		}
		if at < 0 {
			t.parts = append(t.parts, []byte(text))
			return t
		}
		t.parts = append(t.parts, []byte(text[:at]))
		t.holes = append(t.holes, which)
		text = text[at+len(varNames[which]):]
	}
}

func (t *tmpl) render(dst []byte, vals *[nVars][]byte) []byte {
	for i, p := range t.parts {
		dst = append(dst, p...)
		if i < len(t.holes) {
			dst = append(dst, vals[t.holes[i]]...)
		}
	}
	return dst
}

const sdpBody = "v=0\r\no=- 0 0 IN IP4 127.0.0.1\r\ns=-\r\nc=IN IP4 127.0.0.1\r\nt=0 0\r\nm=audio 49170 RTP/AVP 0\r\n"

// identity is what an agent puts into its messages.
type identity struct {
	tag    string // run id + agent index; prefixes Call-ID, branch and From tag
	user   string
	domain string
}

func (id identity) viaValue(e *endpoint, suffix string) string {
	return fmt.Sprintf("SIP/2.0/%s %s;branch=z9hG4bK%sn{n}%s", e.transportToken(), e.local, id.tag, suffix)
}

func (id identity) requestText(e *endpoint, method, target, toParams, suffix, extra, body string) string {
	return fmt.Sprintf("%s sip:%s SIP/2.0\r\n"+
		"Via: %s\r\n"+
		"Max-Forwards: 70\r\n"+
		"From: <sip:%s@%s>;tag=%sn{n}\r\n"+
		"To: <sip:%s>%s\r\n"+
		"Call-ID: %sn{n}@bench\r\n"+
		"CSeq: {cseq} %s\r\n"+
		"%s"+
		"Content-Length: %d\r\n\r\n%s",
		method, target, id.viaValue(e, suffix), id.user, id.domain, id.tag,
		target, toParams, id.tag, method, extra, len(body), body)
}

// --- bookkeeping --------------------------------------------------------

type opEvent struct {
	done int64 // ns since the generator's epoch
	why  reason
}

type latSample struct {
	done int64
	dur  int64
}

// span is one traced interval. Spans of one call share op; parent names the
// enclosing span of the same op ("" for the root).
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// agentLog is written by one goroutine and read after it has exited.
type agentLog struct {
	ops   []opEvent
	lats  []latSample
	spans []span
}

// --- agents -------------------------------------------------------------

// agent is the part callers and registering sockets share: one endpoint,
// one identity, one transaction in flight.
type agent struct {
	g   *generator
	id  identity
	ep  *endpoint
	log agentLog

	n      uint64
	vals   [nVars][]byte
	nbuf   [10]byte
	out    []byte
	want   []byte // scratch for the expected Call-ID / CSeq / Via
	view   msgView
	viaPre []byte // expected Via up to the call counter
}

func (a *agent) now() int64 { return int64(time.Since(a.g.epoch)) }

func (a *agent) setN(n uint64) {
	for i := len(a.nbuf) - 1; i >= 0; i-- {
		a.nbuf[i] = byte('0' + n%10)
		n /= 10
	}
	a.vals[vN] = a.nbuf[:]
}

func (a *agent) opID() string { return a.id.tag + "n" + string(a.nbuf[:]) }

func (a *agent) bind(e *endpoint) {
	a.ep = e
	via := a.id.viaValue(e, "")
	a.viaPre = []byte(via[:strings.Index(via, "{n}")])
}

// transact sends req and reads until the final response of that transaction
// arrives. Every response on the way is checked: Call-ID and CSeq echo, and
// exactly the sender's Via. The first check that fails is the outcome, but
// reading goes on to the final so that the socket stays in step.
func (a *agent) transact(req []byte, cseq []byte, method string, branchSuffix byte, wantStatus int) reason {
	if err := a.ep.send(req); err != nil {
		return failTransport
	}
	deadline := time.Now().Add(a.g.timeout)
	flag := opOK
	note := func(r reason) {
		if flag == opOK {
			flag = r
		}
	}
	for {
		msg, err := a.ep.recv()
		if err == nil && time.Now().After(deadline) {
			err = os.ErrDeadlineExceeded // answers kept coming, the final did not
		}
		if err != nil {
			if flag != opOK {
				return flag
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return failTimeout
			}
			return failTransport
		}
		v := &a.view
		if v.scan(msg) != nil || v.isRequest {
			note(failMalformed)
			continue
		}
		// Over UDP the proxy's workers may forward a 180 after the 200 that
		// followed it, so a response to an earlier transaction of this agent
		// is late, not wrong. Counters are fixed-width decimals: byte order is
		// numeric order.
		a.want = append(append(a.want[:0], a.id.tag...), 'n')
		id, ok := bytes.CutPrefix(v.callID, a.want)
		id, ok2 := bytes.CutSuffix(id, []byte("@bench"))
		if !ok || !ok2 || len(id) != len(a.nbuf) || bytes.Compare(id, a.nbuf[:]) > 0 {
			note(failCallID)
			continue
		}
		if !bytes.Equal(id, a.nbuf[:]) {
			continue
		}
		num, meth, _ := bytes.Cut(v.cseq, []byte(" "))
		if len(num) == len(cseq) && bytes.Compare(num, cseq) < 0 {
			continue
		}
		if !bytes.Equal(num, cseq) || string(meth) != method {
			note(failCSeq)
			continue
		}
		a.want = append(append(append(a.want[:0], a.viaPre...), a.nbuf[:]...), branchSuffix)
		if v.nvia != 1 || !bytes.Equal(v.vias[0], a.want) {
			note(failVia)
		}
		if v.status < 200 {
			continue
		}
		if flag == opOK && v.status != wantStatus {
			return failStatus
		}
		return flag
	}
}

// pair links a caller to its callee so a failed callee-side check is
// charged to the op in flight (one call per pair is in flight at a time).
type pair struct {
	calleeFault atomic.Uint32
}

type caller struct {
	agent
	pair    *pair
	callee  string
	peer    *callee // whose connection this caller's thread rotates
	rotated int64   // when the pair's connections were last replaced

	invite, ack, bye tmpl
	cseqBuf          [2][]byte
	tagBuf           []byte
	opsOnConn        int
}

// callTexts renders the three requests of a call with only the per-call
// variables left open.
func callTexts(id identity, e *endpoint, callee string) (invite, ack, bye string) {
	target := callee + "@" + id.domain
	contact := fmt.Sprintf("Contact: <sip:%s@%s>\r\n", id.user, e.local)
	return id.requestText(e, "INVITE", target, "", "i", contact+"Content-Type: application/sdp\r\n", sdpBody),
		id.requestText(e, "ACK", target, ";tag={totag}", "a", "", ""),
		id.requestText(e, "BYE", target, ";tag={totag}", "b", "", "")
}

// use makes e the caller's connection and renders its requests for it.
func (c *caller) use(e *endpoint) {
	c.bind(e)
	invite, ack, bye := callTexts(c.id, e, c.callee)
	c.invite, c.ack, c.bye = compile(invite), compile(ack), compile(bye)
}

func appendUint(dst []byte, n uint64) []byte { return strconv.AppendUint(dst, n, 10) }

// call places one call: INVITE (100, 180, 200), ACK, BYE (200). It logs two
// ops, and one latency sample when both succeeded.
func (c *caller) call() {
	c.n++
	c.setN(c.n)
	tracing := c.g.tracing.Load()
	// 10 digits without a leading zero; two CSeqs per call.
	c.cseqBuf[0] = appendUint(c.cseqBuf[0][:0], 1_000_000_000+2*c.n)
	c.cseqBuf[1] = appendUint(c.cseqBuf[1][:0], 1_000_000_001+2*c.n)

	t0 := c.now()
	c.vals[vCSeq] = c.cseqBuf[0]
	c.out = c.invite.render(c.out[:0], &c.vals)
	inviteWhy := c.transact(c.out, c.cseqBuf[0], "INVITE", 'i', 200)
	if inviteWhy == opOK && c.pair.calleeFault.Swap(0) != 0 {
		inviteWhy = failCallee
	}
	t1 := c.now()
	c.log.ops = append(c.log.ops, opEvent{t1, inviteWhy})
	if inviteWhy.fatal() {
		c.afterOps(1, true)
		return
	}
	// The To tag lives in the receive buffer; keep a copy for ACK and BYE.
	c.tagBuf = append(c.tagBuf[:0], toTag(c.view.to)...)
	c.vals[vToTag] = c.tagBuf

	c.out = c.ack.render(c.out[:0], &c.vals)
	ackErr := c.ep.send(c.out)
	t2 := c.now()

	c.vals[vCSeq] = c.cseqBuf[1]
	c.out = c.bye.render(c.out[:0], &c.vals)
	byeWhy := failTransport
	if ackErr == nil {
		byeWhy = c.transact(c.out, c.cseqBuf[1], "BYE", 'b', 200)
	}
	if byeWhy == opOK && c.pair.calleeFault.Swap(0) != 0 {
		byeWhy = failCallee
	}
	t3 := c.now()
	c.log.ops = append(c.log.ops, opEvent{t3, byeWhy})
	if inviteWhy == opOK && byeWhy == opOK {
		c.log.lats = append(c.log.lats, latSample{t3, t3 - t0})
		if tracing {
			op := c.opID()
			c.log.spans = append(c.log.spans,
				span{"call", op, "", t0, t3},
				span{"invite", op, "call", t0, t1},
				span{"ack", op, "call", t1, t2},
				span{"bye", op, "call", t2, t3})
		}
	}
	c.afterOps(2, byeWhy.fatal())
}

// afterOps runs between calls, when nothing of this pair is in flight. It
// replaces the caller's connection when tcp.churn's budget is used up, when
// the pair's rotation is due, or when an op has just failed on it (so that
// one fault does not fail the rest).
func (c *caller) afterOps(n int, broken bool) {
	c.opsOnConn += n
	if c.ep.network != "tcp" {
		return
	}
	rotate := c.now()-c.rotated >= int64(rotateEvery)
	if rotate {
		c.rotated = c.now()
		c.rotateCallee()
	}
	if !rotate && !broken && !(c.g.wl.churn && c.opsOnConn >= churnEvery) {
		return
	}
	c.opsOnConn = 0
	c.ep.close()
	e, err := dialEndpoint("tcp", c.g.proxy, c.g.timeout)
	if err != nil {
		c.ep.fd = -1 // every later op fails as transport, on no one's descriptor
		return
	}
	c.use(e)
}

// rotateCallee gives the callee a fresh connection: dial, register over it
// so that the proxy's binding follows, hand it to the callee's thread, and
// shut the old one down to wake that thread. A rotation that fails is
// logged as a failed op so that it cannot pass unseen.
func (c *caller) rotateCallee() {
	cal := c.peer
	e, err := dialEndpoint("tcp", c.g.proxy, c.g.timeout)
	if err == nil {
		cal.reg.use(e)
		if cal.reg.register(cal.userIdx, false) != opOK || e.setRecvTimeout(0) != nil {
			e.close()
			err = errors.New("callee re-registration failed")
		}
	}
	if err != nil {
		c.log.ops = append(c.log.ops, opEvent{c.now(), failTransport})
		return
	}
	cal.ep.Swap(e).shutdown()
}

func toTag(to []byte) []byte {
	i := bytes.Index(to, []byte(";tag="))
	if i < 0 {
		return nil
	}
	tag := to[i+5:]
	if j := bytes.IndexByte(tag, ';'); j >= 0 {
		tag = tag[:j]
	}
	return tag
}

// callee answers INVITE with 180 and 200, BYE with 200, and checks what the
// proxy did to each request on the way: its own Via pushed on top of the
// caller's, Max-Forwards decremented, Request-URI still naming this user.
type callee struct {
	g        *generator
	ep       atomic.Pointer[endpoint] // replaced by the caller's thread, see rotateCallee
	user     string
	userIdx  int
	reg      *registrar // registers this user over each new connection
	pair     *pair
	proxyVia []byte // "SIP/2.0/UDP <proxy addr>;branch=z9hG4bK"
	peerVia  []byte // ";branch=z9hG4bK<caller tag>n": the caller's branch, whatever port it dials from
	spans    []span
	out      []byte
}

func (c *callee) check(v *msgView) bool {
	return v.nvia == 2 &&
		bytes.HasPrefix(v.vias[0], c.proxyVia) &&
		bytes.Contains(v.vias[1], c.peerVia) &&
		string(v.maxFwd) == "69" &&
		string(v.uriUser) == c.user
}

func (c *callee) response(dst []byte, v *msgView, status string, addTag bool) []byte {
	dst = append(append(dst, "SIP/2.0 "...), status...)
	for i := 0; i < v.nvia && i < len(v.vias); i++ {
		dst = append(append(dst, "\r\nVia: "...), v.vias[i]...)
	}
	dst = append(append(dst, "\r\nFrom: "...), v.from...)
	dst = append(append(dst, "\r\nTo: "...), v.to...)
	if addTag {
		dst = append(append(dst, ";tag=callee-"...), c.user...)
	}
	dst = append(append(dst, "\r\nCall-ID: "...), v.callID...)
	dst = append(append(dst, "\r\nCSeq: "...), v.cseq...)
	if status[0] == '2' && addTag {
		dst = append(append(append(append(dst, "\r\nContact: <sip:"...), c.user...), '@'), c.ep.Load().local...)
		dst = append(dst, '>')
	}
	return append(dst, "\r\nContent-Length: 0\r\n\r\n"...)
}

func (c *callee) serve() {
	var v msgView
	for {
		ep := c.ep.Load()
		msg, err := ep.recv()
		if err != nil {
			if c.ep.Load() != ep {
				ep.close() // rotated: this thread owned the old descriptor
				continue
			}
			return // shut down by the generator
		}
		t0 := int64(time.Since(c.g.epoch))
		if v.scan(msg) != nil || !v.isRequest {
			c.pair.calleeFault.Store(1)
			continue
		}
		if !c.check(&v) {
			c.pair.calleeFault.Store(1)
		}
		name := ""
		switch string(v.method) {
		case "INVITE":
			name = "callee.invite"
			c.out = c.response(c.out[:0], &v, "180 Ringing", true)
			if ep.network == "udp" {
				// One datagram per response.
				if ep.send(c.out) != nil {
					return
				}
				c.out = c.out[:0]
			}
			c.out = c.response(c.out, &v, "200 OK", true)
		case "BYE":
			name = "callee.bye"
			c.out = c.response(c.out[:0], &v, "200 OK", false)
		default: // ACK
			continue
		}
		// The span ends when the final response is handed to the socket, not
		// when the write returns: the caller may have read the response by
		// then, and a child span must not outlast the call.
		t1 := int64(time.Since(c.g.epoch))
		if ep.send(c.out) != nil {
			return
		}
		if c.g.tracing.Load() {
			id := v.callID
			if at := bytes.IndexByte(id, '@'); at >= 0 {
				id = id[:at]
			}
			c.spans = append(c.spans, span{name, string(id), "call", t0, t1})
		}
	}
}

// registrar is one socket of udp.register: it re-REGISTERs its share of the
// AORs in seed order, answering the digest challenge each time.
type registrar struct {
	agent
	users    []int
	next     int
	first    tmpl // REGISTER without credentials
	second   tmpl // REGISTER with Authorization
	ha2      string
	cseqBuf  [2][]byte
	userBuf  []byte
	nonceBuf []byte
	respBuf  [32]byte
}

// registerTexts renders a REGISTER of {user} without credentials and, for
// a server with -auth, the retry that carries them.
func registerTexts(id identity, e *endpoint) (first, second string) {
	extra := fmt.Sprintf("Contact: <sip:{user}@%s>\r\nExpires: 3600\r\n", e.local)
	cred := fmt.Sprintf(`Authorization: Digest username="{user}", realm=%q, nonce="{nonce}", uri="sip:%s", response="{resp}", algorithm=MD5`+"\r\n",
		id.domain, id.domain)
	id.user = "{user}"
	target := "{user}@" + id.domain
	// A REGISTER's Request-URI names the domain, not the user.
	line := strings.NewReplacer("REGISTER sip:"+target, "REGISTER sip:"+id.domain)
	return line.Replace(id.requestText(e, "REGISTER", target, "", "r", extra, "")),
		line.Replace(id.requestText(e, "REGISTER", target, "", "s", extra+cred, ""))
}

// use makes e the registrar's socket and renders its requests for it.
func (r *registrar) use(e *endpoint) {
	r.bind(e)
	first, second := registerTexts(r.id, e)
	r.first, r.second = compile(first), compile(second)
	sum := md5.Sum([]byte("REGISTER:sip:" + r.id.domain))
	r.ha2 = hex.EncodeToString(sum[:])
}

// register performs one registration of user index u. With auth it is two
// round trips: 401 with a nonce, then 200 to the credentialed retry.
func (r *registrar) register(u int, auth bool) reason {
	r.n++
	r.setN(r.n)
	r.userBuf = appendUint(append(r.userBuf[:0], "user"...), uint64(u))
	r.vals[vUser] = r.userBuf
	r.cseqBuf[0] = appendUint(r.cseqBuf[0][:0], 1_000_000_000+2*r.n)
	r.vals[vCSeq] = r.cseqBuf[0]
	r.out = r.first.render(r.out[:0], &r.vals)
	if !auth {
		return r.transact(r.out, r.cseqBuf[0], "REGISTER", 'r', 200)
	}
	if why := r.transact(r.out, r.cseqBuf[0], "REGISTER", 'r', 401); why != opOK {
		return why
	}
	realm, nonce := authParam(r.view.auth, "realm"), authParam(r.view.auth, "nonce")
	if string(realm) != r.id.domain || len(nonce) == 0 {
		return failAuth
	}
	// response = MD5(MD5(user:realm:password) ":" nonce ":" MD5(method:uri))
	w := append(append(append(append(append(r.want[:0], r.userBuf...), ':'), realm...), ":secret-"...), r.userBuf...)
	ha1 := md5.Sum(w)
	r.nonceBuf = append(r.nonceBuf[:0], nonce...) // the receive buffer is reused by the next read
	w = append(append(append(append(hex.AppendEncode(r.want[:0], ha1[:]), ':'), r.nonceBuf...), ':'), r.ha2...)
	sum := md5.Sum(w)
	hex.Encode(r.respBuf[:], sum[:])
	r.vals[vNonce] = r.nonceBuf
	r.vals[vResp] = r.respBuf[:]
	r.cseqBuf[1] = appendUint(r.cseqBuf[1][:0], 1_000_000_001+2*r.n)
	r.vals[vCSeq] = r.cseqBuf[1]
	r.out = r.second.render(r.out[:0], &r.vals)
	return r.transact(r.out, r.cseqBuf[1], "REGISTER", 's', 200)
}

// op is one measured registration: the next AOR in this socket's order.
func (r *registrar) op() {
	u := r.users[r.next%len(r.users)]
	r.next++
	tracing := r.g.tracing.Load()
	t0 := r.now()
	why := r.register(u, true)
	t1 := r.now()
	r.log.ops = append(r.log.ops, opEvent{t1, why})
	if why == opOK {
		r.log.lats = append(r.log.lats, latSample{t1, t1 - t0})
		if tracing {
			r.log.spans = append(r.log.spans, span{"register", r.opID(), "", t0, t1})
		}
	}
}

// --- generator ----------------------------------------------------------

// generator owns every socket and goroutine on the client side of one round.
type generator struct {
	wl      *workload
	proxy   string
	epoch   time.Time
	timeout time.Duration // bounds every transaction and dial
	stop    atomic.Bool
	tracing atomic.Bool

	callers    []*caller
	callees    []*callee
	registrars []*registrar
	parked     []net.Conn

	loops   sync.WaitGroup // callers and registrars
	serving sync.WaitGroup // callees
	closed  sync.Once
}

const inFlight = 2 // calls (or registrations) in flight; fixed, not derived from nproc

// seedInputs derives everything a workload takes from its seed: the run id
// that prefixes every Call-ID, branch and tag, and the order in which the
// provisioned users are drawn (callers and callees from the front; the
// whole order for udp.register).
func seedInputs(seed uint64) (run string, order []int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	return fmt.Sprintf("%08x", rng.Uint32()), rng.Perm(provisioned)
}

// newGenerator is the client half of set-up: it opens every socket,
// registers every endpoint and, for tcp.churn, parks the idle connections.
// On error everything opened so far is closed.
func newGenerator(wl *workload, seed uint64, proxy, domain string) (g *generator, err error) {
	g = &generator{wl: wl, proxy: proxy, epoch: time.Now(), timeout: respTimeout}
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	run, order := seedInputs(seed)

	if wl.register {
		share := provisioned / inFlight
		for i := 0; i < inFlight; i++ {
			e, err := dialEndpoint(wl.network, proxy, g.timeout)
			if err != nil {
				return nil, err
			}
			r := &registrar{users: order[i*share : (i+1)*share]}
			r.g, r.id = g, identity{tag: fmt.Sprintf("%sr%d", run, i), domain: domain}
			r.use(e)
			g.registrars = append(g.registrars, r)
			if why := r.register(r.users[0], true); why != opOK {
				return nil, fmt.Errorf("set-up registration of user%d: %v", r.users[0], why)
			}
			r.next = 1
		}
		return g, nil
	}

	for i := 0; i < inFlight; i++ {
		p := &pair{}
		callerUser, calleeUser := fmt.Sprintf("user%d", order[2*i]), fmt.Sprintf("user%d", order[2*i+1])
		tag := fmt.Sprintf("%sc%d", run, i)

		ce, err := dialEndpoint(wl.network, proxy, g.timeout)
		if err != nil {
			return nil, err
		}
		cal := &callee{g: g, user: calleeUser, userIdx: order[2*i+1], pair: p, reg: &registrar{},
			proxyVia: []byte(fmt.Sprintf("SIP/2.0/%s %s;branch=z9hG4bK", ce.transportToken(), proxy)),
			peerVia:  []byte(";branch=z9hG4bK" + tag + "n")}
		cal.ep.Store(ce)
		cal.reg.g, cal.reg.id = g, identity{tag: tag + "y", domain: domain}
		g.callees = append(g.callees, cal)

		e, err := dialEndpoint(wl.network, proxy, g.timeout)
		if err != nil {
			return nil, err
		}
		c := &caller{pair: p, callee: calleeUser, peer: cal}
		c.g, c.id = g, identity{tag: tag, user: callerUser, domain: domain}
		c.use(e)
		g.callers = append(g.callers, c)

		// Both endpoints register over the socket they will use, so the
		// proxy's binding source is the callee's own connection.
		own := &registrar{}
		own.g, own.id = g, identity{tag: tag + "x", domain: domain}
		for _, who := range []struct {
			r    *registrar
			e    *endpoint
			user int
		}{{cal.reg, ce, order[2*i+1]}, {own, e, order[2*i]}} {
			who.r.use(who.e)
			if why := who.r.register(who.user, false); why != opOK {
				return nil, fmt.Errorf("set-up registration of user%d: %v", who.user, why)
			}
		}
		// From here the callee only waits for requests, however long.
		if err := ce.setRecvTimeout(0); err != nil {
			return nil, err
		}
	}
	if wl.churn {
		for i := 0; i < parkedConns; i++ {
			conn, err := net.DialTimeout("tcp", proxy, g.timeout)
			if err != nil {
				return nil, fmt.Errorf("parked connection %d: %w", i, err)
			}
			g.parked = append(g.parked, conn)
		}
	}
	return g, nil
}

// start launches the callee loops and the closed-loop callers, each on an
// OS thread of its own (see endpoint).
func (g *generator) start() {
	run := func(wg *sync.WaitGroup, loop func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			loop()
		}()
	}
	for _, c := range g.callees {
		run(&g.serving, c.serve)
	}
	for _, c := range g.callers {
		run(&g.loops, func() {
			for !g.stop.Load() {
				c.call()
			}
		})
	}
	for _, r := range g.registrars {
		run(&g.loops, func() {
			for !g.stop.Load() {
				r.op()
			}
		})
	}
}

// finish lets every caller complete the call it is in, then closes all
// sockets and waits for the callees; afterwards the logs may be read.
func (g *generator) finish() {
	g.stop.Store(true)
	g.loops.Wait()
	g.close()
}

// close releases every socket, parked ones included. Safe to call twice,
// but not while callers are running: finish stops them first.
func (g *generator) close() {
	g.closed.Do(func() {
		// A callee blocked in recv owns its descriptor: wake it, let it
		// leave, and only then free the number for reuse.
		for _, c := range g.callees {
			c.ep.Load().shutdown()
		}
		g.serving.Wait()
		for _, c := range g.callees {
			c.ep.Load().close()
		}
		for _, c := range g.callers {
			c.ep.close()
		}
		for _, r := range g.registrars {
			r.ep.close()
		}
		for _, p := range g.parked {
			p.Close()
		}
	})
}

// logs returns every agent's log, and the callee spans; call after finish.
func (g *generator) logs() (agents []*agentLog, calleeSpans []span) {
	for _, c := range g.callers {
		agents = append(agents, &c.log)
	}
	for _, r := range g.registrars {
		agents = append(agents, &r.log)
	}
	for _, c := range g.callees {
		calleeSpans = append(calleeSpans, c.spans...)
	}
	return agents, calleeSpans
}
