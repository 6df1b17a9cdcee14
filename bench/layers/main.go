//go:build layerprobe && linux

// Command layers times each layer of the proxy through its narrowest public
// entry points. It is the only part of bench/ that imports gosip's internal
// packages, and it sits behind the layerprobe build tag so that a refactor
// of those packages cannot break `go build ./...`: bench builds it with the
// tag and reports "layers: unavailable" when it no longer compiles.
//
// Input (stdin): the messages of one call or registration as the generator
// renders them for this seed, with {n} left open so every replay is a new
// transaction. Output (stdout): one JSON object, ns per call, allocs per
// call and call count per probe. Every timed call is wrapped in a span;
// -spans writes the first spans of each probe to a file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"gosip/internal/conn"
	"gosip/internal/connmgr"
	"gosip/internal/fdcache"
	"gosip/internal/ipc"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/proxy"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
	"gosip/internal/transaction"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// input mirrors bench's probeInput.
type input struct {
	Reliable bool     `json:"reliable"`
	Auth     bool     `json:"auth"`
	Domain   string   `json:"domain"`
	User     string   `json:"user"`    // the AOR that registers (callee, or the registering user)
	Setup    []string `json:"setup"`   // handled once before measuring
	Inbound  []string `json:"inbound"` // what the proxy receives in one flow, in order
}

type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type result struct {
	NsPerCall     float64 `json:"ns_per_call"`
	AllocsPerCall float64 `json:"allocs_per_call"`
	Calls         int     `json:"calls"`
}

// recorder times calls. A probe's calls all carry the probe's name; the
// parent is the probe's root span, written when the probe ends.
type recorder struct {
	epoch    time.Time
	overhead float64 // ns an empty span measures: two clock reads
	spans    []span  // first keep spans of every probe
	results  map[string]result

	name   string
	sum    int64
	calls  int
	first  int64
	mstart runtime.MemStats
}

const keep = 200

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) begin(name string) {
	r.name, r.sum, r.calls = name, 0, 0
	runtime.GC()
	runtime.ReadMemStats(&r.mstart)
	r.first = r.now()
}

// call times fn as one span of the current probe.
func (r *recorder) call(op int, fn func()) {
	t0 := r.now()
	fn()
	t1 := r.now()
	r.sum += t1 - t0
	if r.calls < keep {
		r.spans = append(r.spans, span{r.name, op, r.name + ".probe", t0, t1})
	}
	r.calls++
}

func (r *recorder) end() {
	last := r.now()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ns := float64(r.sum)/float64(r.calls) - r.overhead
	if ns < 0 {
		ns = 0
	}
	r.results[r.name] = result{ns, float64(m.Mallocs-r.mstart.Mallocs) / float64(r.calls), r.calls}
	r.spans = append(r.spans, span{r.name + ".probe", 0, "", r.first, last})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layers:", err)
	os.Exit(1)
}

func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

// fill renders one replay of a flow message.
func fill(text string, n int, proxyVia, nonce, resp string) []byte {
	return []byte(strings.NewReplacer("{n}", fmt.Sprintf("%010d", n), "{proxyvia}", proxyVia,
		"{nonce}", nonce, "{resp}", resp).Replace(text))
}

// capture is the discarding Sender: it keeps what the next inbound message
// of the flow depends on (the proxy's own Via, the challenge) and every
// message the engine emitted, and sends nothing.
type capture struct {
	proxyVia  string
	challenge string
	sent      []*sipmsg.Message
	collect   bool
}

func (c *capture) note(m *sipmsg.Message) {
	if c.collect {
		c.sent = append(c.sent, m)
	}
}

func (c *capture) ToOrigin(_ any, m *sipmsg.Message) error {
	if v, ok := m.Get("WWW-Authenticate"); ok {
		c.challenge = v
	}
	c.note(m)
	return nil
}

func (c *capture) ToBinding(_ location.Binding, m *sipmsg.Message) error {
	if v, ok := m.Get("Via"); ok && m.IsRequest {
		c.proxyVia = v
	}
	c.note(m)
	return nil
}

func (c *capture) ToAddr(_, _ string, m *sipmsg.Message) error {
	c.note(m)
	return nil
}

// stubConn is a connection object's socket when only the bookkeeping around
// it is being timed.
type stubConn struct {
	net.Conn
	addr net.TCPAddr
}

func (s *stubConn) RemoteAddr() net.Addr { return &s.addr }
func (s *stubConn) Close() error         { return nil }

func stubStream(i int) *transport.StreamConn {
	return transport.NewStreamConn(&stubConn{addr: net.TCPAddr{IP: net.IPv4(10, 0, byte(i>>8), byte(i)), Port: 5060}})
}

// loopbackPair returns both ends of a real TCP connection; the far end is
// drained so writes never block.
func loopbackPair() (near, far net.Conn) {
	ln := must(net.Listen("tcp", "127.0.0.1:0"))
	defer ln.Close()
	acc := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			fatal(err)
		}
		acc <- c
	}()
	near = must(net.Dial("tcp", ln.Addr().String()))
	far = <-acc
	go io.Copy(io.Discard, far) // ends when far is closed at exit
	return near, far
}

func main() {
	spansPath := flag.String("spans", "", "write the first spans of every probe to this file")
	flag.Parse()
	var in input
	if err := json.NewDecoder(os.Stdin).Decode(&in); err != nil {
		fatal(fmt.Errorf("reading the flow from stdin: %w", err))
	}
	r := &recorder{epoch: time.Now(), results: map[string]result{}}

	// Clock cost first, so every later probe can subtract it.
	r.begin("span_overhead")
	for i := 0; i < 200000; i++ {
		r.call(i, func() {})
	}
	r.end()
	r.overhead = r.results["span_overhead"].NsPerCall

	prof := metrics.NewProfile()
	timers := must(timerlist.NewScheduler(timerlist.ImplHeap, timerlist.Options{Profile: prof}))
	loc := location.NewService(location.Options{Profile: prof})
	db := userdb.New(userdb.Config{}, prof)
	db.ProvisionN(10000, in.Domain)
	txns := transaction.NewTable(transaction.Config{}, timers, prof)
	viaTransport := "UDP"
	if in.Reliable {
		viaTransport = "TCP"
	}
	eng := proxy.NewEngine(proxy.Config{Stateful: true, Reliable: in.Reliable, Auth: in.Auth,
		ViaTransport: viaTransport, ViaHost: "127.0.0.1", ViaPort: 5060, Domain: in.Domain}, loc, db, txns, prof)
	snd := &capture{}
	if !in.Reliable {
		eng.SetTimerSender(snd)
	}
	origin := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 5071}
	password := userdb.PasswordFor(in.User)

	// replay feeds one flow through fn, message by message.
	flowNo := 0
	replay := func(fn func(i int, wire []byte)) {
		flowNo++
		snd.proxyVia, snd.challenge = "", ""
		for i, text := range in.Inbound {
			nonce, resp := "", ""
			if snd.challenge != "" {
				realm, n, err := proxy.ParseChallenge(snd.challenge)
				if err != nil {
					fatal(err)
				}
				nonce = n
				resp = proxy.DigestResponse(in.User, realm, password, nonce, "REGISTER", "sip:"+in.Domain)
			}
			fn(i, fill(text, flowNo, snd.proxyVia, nonce, resp))
		}
	}
	handle := func(wire []byte) {
		m := must(sipmsg.Parse(wire))
		eng.Handle(snd, m, origin)
		m.Release()
	}
	for _, text := range in.Setup {
		handle(fill(text, 0, "", "", ""))
	}

	// One untimed flow: checks the flow is answered as expected and yields
	// the wire form of everything the proxy receives and emits.
	var inbound [][]byte
	snd.collect = true
	replay(func(_ int, wire []byte) {
		inbound = append(inbound, wire)
		handle(wire)
	})
	snd.collect = false
	outbound := snd.sent
	if len(outbound) < len(inbound) {
		fatal(fmt.Errorf("flow of %d inbound messages produced only %d outbound: the engine rejected part of it", len(inbound), len(outbound)))
	}

	// proxy (TU): one message through Engine.Handle, parse excluded.
	r.begin("proxy.handle")
	for f := 0; f < 2500; f++ {
		replay(func(i int, wire []byte) {
			m := must(sipmsg.Parse(wire))
			r.call(f, func() { eng.Handle(snd, m, origin) })
			m.Release()
		})
	}
	r.end()

	// sipmsg
	r.begin("sipmsg.parse")
	for i := 0; i < 8000; i++ {
		for _, wire := range inbound {
			r.call(i, func() { must(sipmsg.Parse(wire)).Release() })
		}
	}
	r.end()
	var stream bytes.Buffer
	const frames = 8000
	for i := 0; i < frames; i++ {
		for _, wire := range inbound {
			stream.Write(wire)
		}
	}
	rd := sipmsg.NewReader(&stream)
	r.begin("sipmsg.frame")
	for i := 0; i < frames*len(inbound); i++ {
		r.call(i, func() { must(rd.ReadMessage()).Release() })
	}
	r.end()
	var buf []byte
	r.begin("sipmsg.serialize")
	for i := 0; i < 8000; i++ {
		for _, m := range outbound {
			r.call(i, func() { buf = m.AppendTo(buf[:0]) })
		}
	}
	r.end()

	// transaction: create a server transaction, then match it by branch as
	// a response would.
	req := must(sipmsg.Parse(inbound[0]))
	const txN = 50000
	upKeys, downKeys, branches := make([]string, txN), make([]string, txN), make([]string, txN)
	for i := range upKeys {
		upKeys[i] = fmt.Sprintf("z9hG4bKup%d|%s", i, req.Method)
		branches[i] = fmt.Sprintf("z9hG4bKdown%d", i)
		downKeys[i] = branches[i] + "|" + string(req.Method)
	}
	ptimers := must(timerlist.NewScheduler(timerlist.ImplHeap, timerlist.Options{}))
	ptx := transaction.NewTable(transaction.Config{}, ptimers, prof)
	r.begin("transaction.create_match")
	for i := 0; i < txN; i++ {
		r.call(i, func() {
			tx, _ := ptx.Create(upKeys[i], req, origin)
			ptx.SetForwarded(tx, downKeys[i], req, nil)
			if ptx.MatchParts(branches[i], req.Method) != tx {
				fatal(fmt.Errorf("transaction %s did not match", downKeys[i]))
			}
		})
	}
	r.end()

	// timerlist: arm and cancel with 100k timers resident, as a UDP proxy
	// under load holds them.
	sched := must(timerlist.NewScheduler(timerlist.ImplHeap, timerlist.Options{}))
	for i := 0; i < 100000; i++ {
		sched.After(time.Hour+time.Duration(i)*time.Millisecond, func() {})
	}
	r.begin("timerlist.schedule_cancel")
	for i := 0; i < 100000; i++ {
		r.call(i, func() { sched.After(32*time.Second, func() {}).Cancel() })
	}
	r.end()

	// location: 10000 AORs resident.
	ploc := location.NewService(location.Options{})
	now := time.Now()
	uris := make([]sipmsg.URI, 10000)
	for i := range uris {
		uris[i] = sipmsg.URI{User: userdb.UserName(i), Host: in.Domain}
		ploc.RegisterContact(uris[i], location.Binding{Contact: sipmsg.URI{User: uris[i].User, Host: "127.0.0.1", Port: 5071},
			Transport: viaTransport, Source: "127.0.0.1:5071"}, time.Hour, now)
	}
	r.begin("location.lookup")
	for i := 0; i < 100000; i++ {
		r.call(i, func() {
			if _, ok := ploc.LookupOne(uris[i%len(uris)], now); !ok {
				fatal(fmt.Errorf("no binding for %s", uris[i%len(uris)].User))
			}
		})
	}
	r.end()
	r.begin("location.register")
	for i := 0; i < 100000; i++ {
		u := uris[i%len(uris)]
		b := location.Binding{Contact: sipmsg.URI{User: u.User, Host: "127.0.0.1", Port: 5071}, Transport: viaTransport, Source: "127.0.0.1:5071"}
		r.call(i, func() { ploc.RegisterContact(u, b, time.Hour, now) })
	}
	r.end()

	// userdb and digest
	r.begin("userdb.lookup")
	for i := 0; i < 100000; i++ {
		r.call(i, func() {
			if _, err := db.Lookup(uris[i%len(uris)].User, in.Domain); err != nil {
				fatal(err)
			}
		})
	}
	r.end()
	r.begin("proxy.digest")
	for i := 0; i < 50000; i++ {
		r.call(i, func() {
			nonce := proxy.DigestNonce("probe-call-id")
			_ = proxy.DigestResponse(in.User, in.Domain, password, nonce, "REGISTER", "sip:"+in.Domain)
		})
	}
	r.end()

	// conn + connmgr: 1000 connection objects resident.
	table := conn.NewTable(prof)
	pq := connmgr.NewPQueue(prof)
	resident := make([]*conn.TCPConn, 1000)
	for i := range resident {
		resident[i] = table.Insert(stubStream(i), time.Minute)
		pq.Add(resident[i])
	}
	extra := stubStream(5000)
	r.begin("conn.insert_remove")
	for i := 0; i < 50000; i++ {
		r.call(i, func() { table.Remove(table.Insert(extra, time.Minute)) })
	}
	r.end()
	r.begin("connmgr.touch")
	for i := 0; i < 100000; i++ {
		c := resident[i%len(resident)]
		r.call(i, func() {
			c.Touch(now, time.Minute)
			pq.Touch(c)
		})
	}
	r.end()
	r.begin("connmgr.expired")
	for i := 0; i < 100000; i++ {
		r.call(i, func() {
			if n := len(pq.Expired(now, func(*conn.TCPConn, time.Time) bool { return true })); n != 0 {
				fatal(fmt.Errorf("%d connections expired in the probe", n))
			}
		})
	}
	r.end()

	// ipc and fdcache over one real connection: unix-mode fd passing needs
	// a real descriptor to duplicate.
	near, far := loopbackPair()
	defer far.Close()
	real := conn.NewTable(prof)
	owned := real.Insert(transport.NewStreamConn(near), time.Minute)
	fabric := must(ipc.NewFabric(ipc.ModeUnix, 1, 0, prof))
	go func() { // the supervisor's half
		for rq := range fabric.Requests() {
			fabric.Respond(rq, real.Get(rq.ConnID), nil)
		}
	}()
	r.begin("ipc.fd_request")
	for i := 0; i < 15000; i++ {
		r.call(i, func() {
			// Request plus the close the Figure 3 baseline pays per send.
			must(fabric.RequestFD(0, owned)).Close()
		})
	}
	r.end()
	cache := fdcache.New(0, prof)
	cache.Put(owned.ID(), must(fabric.RequestFD(0, owned)))
	r.begin("fdcache.get")
	for i := 0; i < 200000; i++ {
		r.call(i, func() {
			if cache.Get(owned.ID()) == nil {
				fatal(fmt.Errorf("fd cache lost its entry"))
			}
		})
	}
	r.end()
	cache.Close()

	// transport: one message out and back in over loopback UDP; one message
	// written to a loopback TCP stream.
	wire := outbound[0].AppendTo(nil)
	sock := must(transport.ListenUDPOptions("127.0.0.1:0", transport.UDPOptions{Profile: prof}))
	self := sock.LocalAddr()
	r.begin("transport.udp_send_recv")
	for i := 0; i < 20000; i++ {
		r.call(i, func() {
			if err := sock.WriteTo(wire, self); err != nil {
				fatal(err)
			}
			sock.Release(must(sock.ReadPacket()))
		})
	}
	r.end()
	sock.Close()
	r.begin("transport.stream_write")
	for i := 0; i < 20000; i++ {
		r.call(i, func() {
			if err := owned.Stream().WriteRaw(wire); err != nil {
				fatal(err)
			}
		})
	}
	r.end()
	fabric.Close()

	if *spansPath != "" {
		b := must(json.Marshal(map[string]any{"clock": "ns since the probe started", "spans": r.spans}))
		if err := os.WriteFile(*spansPath, b, 0o644); err != nil {
			fatal(err)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(r.results); err != nil {
		fatal(err)
	}
}
