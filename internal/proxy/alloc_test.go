package proxy

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
	"gosip/internal/transaction"
	"gosip/internal/userdb"
)

// discardSender sends nothing and keeps no message: only the proxy's own
// Via value, which the callee's responses must echo.
type discardSender struct {
	proxyVia string
	sent     int
}

func (d *discardSender) ToOrigin(any, *sipmsg.Message) error { d.sent++; return nil }

func (d *discardSender) ToBinding(_ location.Binding, m *sipmsg.Message) error {
	d.sent++
	if v, ok := m.Get("Via"); ok {
		d.proxyVia = v
	}
	return nil
}

func (d *discardSender) ToAddr(string, string, *sipmsg.Message) error { d.sent++; return nil }

// callFlow replays one INVITE/100/180/200/ACK/BYE/200 call — two ops, the
// benchmark's unit — through Engine.Handle the way a receive loop does:
// parse from wire bytes, handle, release. The wire text is what bench/'s
// generator renders; every buffer is reused so the harness allocates
// nothing itself.
type callFlow struct {
	engine *Engine
	timers *timerlist.List
	snd    discardSender
	origin any
	n      uint64
	buf    []byte
}

func newCallFlow(tb testing.TB, reliable bool) *callFlow {
	tb.Helper()
	prof := metrics.NewProfile()
	loc := location.New()
	db := userdb.New(userdb.Config{}, prof)
	db.ProvisionN(10, "test.dom")
	timers := timerlist.NewManual()
	txns := transaction.NewTable(transaction.Config{}, timers, prof)
	transport := "UDP"
	if reliable {
		transport = "TCP"
	}
	e := NewEngine(Config{
		Stateful: true, Reliable: reliable,
		ViaTransport: transport, ViaHost: "127.0.0.1", ViaPort: 5060,
		Domain: "test.dom",
	}, loc, db, txns, prof)
	// The UDP server boxes each request's source address on its way in; the
	// flow boxes one, so the engine's side alone is measured.
	f := &callFlow{engine: e, timers: timers, origin: netip.MustParseAddrPort("127.0.0.1:5071")}
	if !reliable {
		e.SetTimerSender(&f.snd)
	}
	loc.Register(userdb.UserName(1)+"@test.dom", location.Binding{
		Contact:   sipmsg.URI{User: userdb.UserName(1), Host: "127.0.0.1", Port: 5072},
		Transport: transport,
		Source:    "127.0.0.1:5072",
	}, time.Hour, time.Now())
	return f
}

const flowSDP = "v=0\r\no=- 0 0 IN IP4 127.0.0.1\r\ns=-\r\nc=IN IP4 127.0.0.1\r\nt=0 0\r\nm=audio 49170 RTP/AVP 0\r\n"

func (f *callFlow) handle(tb testing.TB) {
	m, err := sipmsg.Parse(f.buf)
	if err != nil {
		tb.Fatalf("flow message does not parse: %v\n%s", err, f.buf)
	}
	f.engine.Handle(&f.snd, m, f.origin)
	m.Release()
}

func (f *callFlow) request(method, suffix, toTag string, cseq uint64, extra, body string) {
	b := f.buf[:0]
	b = append(b, method...)
	b = append(b, " sip:user1@test.dom SIP/2.0\r\nVia: SIP/2.0/UDP 127.0.0.1:5071;branch=z9hG4bKflown"...)
	b = strconv.AppendUint(b, f.n, 10)
	b = append(b, suffix...)
	b = append(b, "\r\nMax-Forwards: 70\r\nFrom: <sip:user0@test.dom>;tag=flown"...)
	b = strconv.AppendUint(b, f.n, 10)
	b = append(b, "\r\nTo: <sip:user1@test.dom>"...)
	b = append(b, toTag...)
	b = append(b, "\r\nCall-ID: flown"...)
	b = strconv.AppendUint(b, f.n, 10)
	b = append(b, "@bench\r\nCSeq: "...)
	b = strconv.AppendUint(b, cseq, 10)
	b = append(b, ' ')
	b = append(b, method...)
	b = append(b, "\r\n"...)
	b = append(b, extra...)
	b = append(b, "Content-Length: "...)
	b = strconv.AppendUint(b, uint64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	f.buf = append(b, body...)
}

func (f *callFlow) response(status, method, suffix string, cseq uint64, contact bool) {
	b := f.buf[:0]
	b = append(b, "SIP/2.0 "...)
	b = append(b, status...)
	b = append(b, "\r\nVia: "...)
	b = append(b, f.snd.proxyVia...)
	b = append(b, "\r\nVia: SIP/2.0/UDP 127.0.0.1:5071;branch=z9hG4bKflown"...)
	b = strconv.AppendUint(b, f.n, 10)
	b = append(b, suffix...)
	b = append(b, "\r\nFrom: <sip:user0@test.dom>;tag=flown"...)
	b = strconv.AppendUint(b, f.n, 10)
	b = append(b, "\r\nTo: <sip:user1@test.dom>;tag=callee-user1\r\nCall-ID: flown"...)
	b = strconv.AppendUint(b, f.n, 10)
	b = append(b, "@bench\r\nCSeq: "...)
	b = strconv.AppendUint(b, cseq, 10)
	b = append(b, ' ')
	b = append(b, method...)
	if contact {
		b = append(b, "\r\nContact: <sip:user1@127.0.0.1:5072>"...)
	}
	f.buf = append(b, "\r\nContent-Length: 0\r\n\r\n"...)
}

// call runs one whole call and then lets the linger window pass, so every
// transaction the call created is terminated before the next one starts.
func (f *callFlow) call(tb testing.TB) {
	f.n++
	const toTag = ";tag=callee-user1"
	f.request("INVITE", "i", "", 1, "Contact: <sip:user0@127.0.0.1:5071>\r\nContent-Type: application/sdp\r\n", flowSDP)
	f.handle(tb)
	f.response("180 Ringing", "INVITE", "i", 1, false)
	f.handle(tb)
	f.response("200 OK", "INVITE", "i", 1, true)
	f.handle(tb)
	f.request("ACK", "a", toTag, 1, "", "")
	f.handle(tb)
	f.request("BYE", "b", toTag, 2, "", "")
	f.handle(tb)
	f.response("200 OK", "BYE", "b", 2, true)
	f.handle(tb)
	f.timers.CheckNow(time.Now().Add(time.Minute))
}

// TestStatefulFlowAllocs pins what one op of the benchmark's call workloads
// costs the allocator on the engine's side: allocations and bytes per op,
// over an unreliable and a reliable transport. Bytes per op set how often
// the collector runs; what each cycle costs is the live heap it marks, and
// that is mostly lingering transactions — which is why a lingering one
// keeps its final as a pointer-free wire image (one copy per final, in the
// bytes below) rather than a message graph the mark phase must walk.
func TestStatefulFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	for _, tc := range []struct {
		name     string
		reliable bool
		allocs   float64
		bytes    float64
	}{
		{"udp", false, 25, 3840},
		{"reliable", true, 25, 3840},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newCallFlow(t, tc.reliable)
			for i := 0; i < 200; i++ { // fill the message pool, grow the maps and the timer heap
				f.call(t)
			}
			if want := 200 * 7; f.snd.sent != want {
				t.Fatalf("200 calls sent %d messages, want %d: the flow is not the one measured", f.snd.sent, want)
			}
			const calls = 2000
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				f.call(t)
			}
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / (2 * calls)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / (2 * calls)
			t.Logf("%.1f allocs/op, %.0f B/op", allocs, bytes)
			if allocs > tc.allocs {
				t.Errorf("%.1f allocs per op, want at most %.0f", allocs, tc.allocs)
			}
			if bytes > tc.bytes {
				t.Errorf("%.0f bytes per op, want at most %.0f", bytes, tc.bytes)
			}
		})
	}
}

func BenchmarkStatefulFlow(b *testing.B) {
	for _, reliable := range []bool{false, true} {
		b.Run(fmt.Sprintf("reliable=%v", reliable), func(b *testing.B) {
			f := newCallFlow(b, reliable)
			for i := 0; i < 200; i++ {
				f.call(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.call(b)
			}
		})
	}
}

// registerSender keeps what a registering phone reads from a reply — its
// status and the challenge's nonce — in fixed storage, so the harness
// allocates nothing.
type registerSender struct {
	status   int
	nonce    [64]byte
	nonceLen int
}

func (r *registerSender) ToOrigin(_ any, m *sipmsg.Message) error {
	r.status, r.nonceLen = m.StatusCode, 0
	if v, ok := m.Get("WWW-Authenticate"); ok {
		if i := strings.Index(v, `nonce="`); i >= 0 {
			v = v[i+len(`nonce="`):]
			if j := strings.IndexByte(v, '"'); j >= 0 {
				r.nonceLen = copy(r.nonce[:], v[:j])
			}
		}
	}
	return nil
}

func (r *registerSender) ToBinding(location.Binding, *sipmsg.Message) error { return nil }

func (r *registerSender) ToAddr(string, string, *sipmsg.Message) error { return nil }

const (
	registerUsers  = 10000
	registerDomain = "bench.gosip"
)

// registerFlow replays udp.register's op — one digest-authenticated
// registration: a REGISTER answered 401, then its credentialed retry
// answered 200 — through Engine.Handle, with both requests rendered as
// bench/'s generator renders them. The users' HA1 values are computed up
// front and every buffer is reused, so the harness allocates nothing.
type registerFlow struct {
	engine *Engine
	snd    registerSender
	origin any
	n      uint64
	buf    []byte
	ha1    [][2 * md5.Size]byte
	ha2    [2 * md5.Size]byte
}

func newRegisterFlow(tb testing.TB) *registerFlow {
	tb.Helper()
	prof := metrics.NewProfile()
	db := userdb.New(userdb.Config{}, prof)
	db.ProvisionN(registerUsers, registerDomain)
	txns := transaction.NewTable(transaction.Config{}, timerlist.NewManual(), prof)
	e := NewEngine(Config{
		Stateful: true, Auth: true,
		ViaTransport: "UDP", ViaHost: "127.0.0.1", ViaPort: 5060,
		Domain: registerDomain,
	}, location.New(), db, txns, prof)
	f := &registerFlow{engine: e, origin: netip.MustParseAddrPort("127.0.0.1:5071"),
		ha1: make([][2 * md5.Size]byte, registerUsers)}
	for u := range f.ha1 {
		name := userdb.UserName(u)
		sum := md5.Sum([]byte(name + ":" + registerDomain + ":" + userdb.PasswordFor(name)))
		hex.Encode(f.ha1[u][:], sum[:])
	}
	sum := md5.Sum([]byte("REGISTER:sip:" + registerDomain))
	hex.Encode(f.ha2[:], sum[:])
	return f
}

// request renders the generator's REGISTER of user u; with a nonce, the
// retry carrying the Authorization header.
func (f *registerFlow) request(u int, cseq uint64, nonce []byte) {
	var n [10]byte // the generator's fixed-width op counter
	for i, v := len(n)-1, f.n; i >= 0; i, v = i-1, v/10 {
		n[i] = byte('0' + v%10)
	}
	suffix := byte('r')
	if nonce != nil {
		suffix = 's'
	}
	b := append(f.buf[:0], "REGISTER sip:"+registerDomain+" SIP/2.0\r\nVia: SIP/2.0/UDP 127.0.0.1:5071;branch=z9hG4bKflowr0n"...)
	b = append(append(b, n[:]...), suffix)
	b = append(b, "\r\nMax-Forwards: 70\r\nFrom: <sip:user"...)
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, "@"+registerDomain+">;tag=flowr0n"...)
	b = append(b, n[:]...)
	b = append(b, "\r\nTo: <sip:user"...)
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, "@"+registerDomain+">\r\nCall-ID: flowr0n"...)
	b = append(b, n[:]...)
	b = append(b, "@bench\r\nCSeq: "...)
	b = strconv.AppendUint(b, cseq, 10)
	b = append(b, " REGISTER\r\nContact: <sip:user"...)
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, "@127.0.0.1:5071>\r\nExpires: 3600\r\n"...)
	if nonce != nil {
		// response = MD5(HA1 ":" nonce ":" HA2), RFC 2617 without qop.
		var in [2*2*md5.Size + 2 + 64]byte
		w := append(append(append(in[:0], f.ha1[u][:]...), ':'), nonce...)
		sum := md5.Sum(append(append(w, ':'), f.ha2[:]...))
		var resp [2 * md5.Size]byte
		hex.Encode(resp[:], sum[:])
		b = append(b, `Authorization: Digest username="user`...)
		b = strconv.AppendInt(b, int64(u), 10)
		b = append(b, `", realm="`+registerDomain+`", nonce="`...)
		b = append(b, nonce...)
		b = append(b, `", uri="sip:`+registerDomain+`", response="`...)
		b = append(b, resp[:]...)
		b = append(b, "\", algorithm=MD5\r\n"...)
	}
	f.buf = append(b, "Content-Length: 0\r\n\r\n"...)
}

func (f *registerFlow) handle(tb testing.TB, want int) {
	m, err := sipmsg.Parse(f.buf)
	if err != nil {
		tb.Fatalf("flow message does not parse: %v\n%s", err, f.buf)
	}
	f.engine.Handle(&f.snd, m, f.origin)
	m.Release()
	if f.snd.status != want {
		tb.Fatalf("REGISTER answered %d, want %d\n%s", f.snd.status, want, f.buf)
	}
}

// register runs one registration of the next user in turn.
func (f *registerFlow) register(tb testing.TB) {
	f.n++
	u := int(f.n % registerUsers)
	f.request(u, 2*f.n, nil)
	f.handle(tb, sipmsg.StatusUnauthorized)
	f.request(u, 2*f.n+1, f.snd.nonce[:f.snd.nonceLen])
	f.handle(tb, sipmsg.StatusOK)
}

// TestRegisterFlowAllocs pins what one op of udp.register costs the
// allocator on the engine's side: digest verification, the challenge and
// the registrar's 200, over refreshes of bindings that already exist.
func TestRegisterFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	f := newRegisterFlow(t)
	for i := 0; i < registerUsers; i++ { // every AOR bound, pools filled
		f.register(t)
	}
	const regs = 5000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < regs; i++ {
		f.register(t)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / regs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / regs
	t.Logf("%.1f allocs/registration, %.0f B/registration", allocs, bytes)
	if allocs > 16 {
		t.Errorf("%.1f allocs per registration, want at most 16", allocs)
	}
	if bytes > 2400 {
		t.Errorf("%.0f bytes per registration, want at most 2400", bytes)
	}
}

func BenchmarkRegisterFlow(b *testing.B) {
	f := newRegisterFlow(b)
	for i := 0; i < registerUsers; i++ {
		f.register(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.register(b)
	}
}
