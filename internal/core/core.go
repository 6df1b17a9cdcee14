// Package core assembles the paper's server architectures around the proxy
// engine (Ram et al. §3). Every architecture runs one pipeline, receive →
// admit → Engine.Handle → send, on the goroutine that received the message,
// and runs it to completion before receiving the next; nothing is handed to
// another goroutine on the way. What differs is how messages arrive:
//
//   - UDPServer (§3.2): N symmetric workers, each receiving from its own
//     SO_REUSEPORT socket on the listen port while the kernel picks the
//     worker per datagram; no connection state; a timer process drives
//     retransmission.
//   - TCPServer (§3.1) and ThreadedServer (§6) share one stream pipeline:
//     an acceptor, a reader goroutine per connection, workers that adopt
//     connections and close idle ones, and one sender that reuses or dials
//     the destination connection. They differ in two policies only:
//     ownership — a tcp worker is a process, so a reader runs its message
//     under the worker's lock, one message per worker at a time, while a
//     single supervisor goroutine accepts, assigns and destroys connections;
//     threaded readers run side by side — and handle acquisition — a tcp
//     worker writes its own connections directly and gets a descriptor for
//     any other from its fd cache (Figure 4) or by a blocking request to the
//     supervisor over the IPC fabric, while a threaded worker writes any
//     connection directly. The Figure 5 priority queue is a configuration
//     switch of both.
package core

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"strconv"
	"time"

	"gosip/internal/conn"
	"gosip/internal/connmgr"
	"gosip/internal/ipc"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/overload"
	"gosip/internal/proxy"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
	"gosip/internal/trace"
	"gosip/internal/transaction"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// Architecture names a server assembly.
type Architecture string

// Available architectures.
const (
	ArchUDP      Architecture = "udp"      // §3.2 symmetric workers
	ArchTCP      Architecture = "tcp"      // §3.1 supervisor + workers
	ArchThreaded Architecture = "threaded" // §6 shared address space over TCP
	// ArchSCTP simulates the §6 SCTP discussion: a reliable, message-based
	// transport whose connection management lives in the kernel lets the
	// server keep the symmetric UDP architecture while dropping the
	// retransmission timer work. Datagram loopback is loss-free, so the
	// UDP socket stands in for SCTP's reliable message service; the server
	// differs from ArchUDP only in treating the transport as reliable.
	ArchSCTP Architecture = "sctpsim"
)

// Config assembles a server.
type Config struct {
	// Arch selects the architecture.
	Arch Architecture
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// Workers is the worker count. The paper used 24 for UDP and 32 for
	// TCP; defaults follow suit scaled by DefaultWorkers. On the datagram
	// architectures it is also the socket count: one socket per worker
	// where SO_REUSEPORT is available, one shared socket elsewhere.
	Workers int
	// Stateful selects the stateful proxy configuration (the paper's).
	Stateful bool
	// Redirect runs the server as a redirection server (§2): requests are
	// answered with 302 + the registered contact instead of being proxied.
	Redirect bool
	// Auth enables digest authentication (401/407 challenges + per-request
	// user-database verification).
	Auth bool
	// Routes statically maps foreign domains to next-hop proxy addresses
	// ("host:port"), forming the §2 "sequence of SIP proxy servers".
	Routes map[string]string
	// RecordRoute keeps in-dialog requests (ACK, BYE) on the proxy path
	// via Record-Route/Route headers (RFC 3261 §16.6).
	RecordRoute bool
	// Faults injects datagram loss at the UDP boundary (see FaultConfig).
	Faults FaultConfig
	// Domain is the served SIP domain.
	Domain string

	// --- TCP architecture knobs ---

	// IPCMode selects the supervisor IPC fabric (unix = SCM_RIGHTS,
	// chan = portable channel round-trip).
	IPCMode ipc.Mode
	// FDCache enables the per-worker file descriptor cache (Figure 4).
	FDCache bool
	// FDCacheCapacity bounds cached handles per worker (0 = unbounded).
	FDCacheCapacity int
	// ConnMgr selects the idle-connection strategy (Figure 5).
	ConnMgr connmgr.Kind
	// IdleTimeout is how long a connection may sit unused before the
	// owning worker returns it (paper: reduced from 120s to 10s).
	IdleTimeout time.Duration
	// SupervisorGrace is the additional period the supervisor waits after
	// a worker returns a connection before destroying it.
	SupervisorGrace time.Duration
	// IdleCheckInterval is how often the supervisor and workers look for
	// idle connections.
	IdleCheckInterval time.Duration
	// SupervisorPenalty models the scheduler starvation of §4.3: a delay
	// the supervisor incurs before serving each request when the boost is
	// absent. Zero = boosted supervisor (the paper's tuned configuration).
	SupervisorPenalty time.Duration
	// IPCTimeout bounds a worker's blocking fd request against a stalled
	// supervisor and, in unix IPC mode, a send on a passed descriptor whose
	// peer stopped reading; on expiry the affected request is answered 503
	// instead of hanging the worker (0 = 2s, negative = no deadline).
	IPCTimeout time.Duration

	// --- TLS transport knobs (stream architectures only) ---

	// TLS arms the TLS transport on the tcp/threaded architectures:
	// accepted connections run a measured server-side handshake at the top
	// of their reader, dialed connections a client-side handshake inline
	// with the dial, and the proxy advertises TLS in its Via. Nil = plain
	// TCP. The datagram architectures reject it.
	TLS *TLSSettings

	// --- substrate knobs ---

	// Overload configures the admission controller consulted before any
	// per-request work (see package overload).
	Overload overload.Config

	// Trace configures per-call tracing and the tail-sampling flight
	// recorder (see package trace). The zero value disables tracing.
	Trace trace.Config

	// TimerInterval is the timer process's check period.
	TimerInterval time.Duration
	// TimerImpl selects the timer data structure: timerlist.ImplWheel (the
	// sharded hierarchical timing wheel with O(1) schedule and cancel, the
	// default) or timerlist.ImplHeap (the paper-faithful binary heap, which
	// keeps cancelled timers resident until their deadline).
	TimerImpl timerlist.Impl
	// TimerShards is the wheel's shard count (0 = GOMAXPROCS); ignored by
	// the heap, which is inherently single-lock.
	TimerShards int
	// Txn tunes the transaction layer.
	Txn transaction.Config
	// DB configures the simulated persistent store.
	DB userdb.Config
	// LocSweepInterval is how often the registrar's expiry wheels advance
	// (0 = 1s).
	LocSweepInterval time.Duration
	// Profile receives instrumentation; one is created when nil.
	Profile *metrics.Profile
}

// Defaults mirror the paper's tuned configuration, scaled for one host.
const (
	DefaultWorkersUDP = 8
	DefaultWorkersTCP = 8
)

// TLSSettings configures the TLS transport (see Config.TLS). Certificates
// are supplied by the caller — generated at runtime by tests and the
// experiment harness (transport.GenerateSelfSigned), or loaded from disk by
// the daemon; the repository holds no key material.
type TLSSettings struct {
	// Cert is presented on accepted connections.
	Cert tls.Certificate
	// RootCAs verifies upstream dials (next hops, callee contacts). Nil
	// falls back to the system pool.
	RootCAs *x509.CertPool
	// Resume arms a client session cache so upstream redials resume with a
	// session ticket instead of paying a full handshake.
	Resume bool
	// SessionCache optionally shares a client session cache with other
	// endpoints (nil + Resume = private LRU).
	SessionCache tls.ClientSessionCache
	// TicketRotate rotates the server session-ticket key on this period,
	// keeping a short key history so outstanding tickets still resume
	// (0 = crypto/tls internal rotation).
	TicketRotate time.Duration
	// HandshakeTimeout bounds every handshake (0 = transport default).
	HandshakeTimeout time.Duration
	// InsecureSkipVerify disables upstream verification (load-generator
	// escape hatch; never set in measured experiments).
	InsecureSkipVerify bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		if c.Arch == ArchUDP || c.Arch == ArchSCTP {
			c.Workers = DefaultWorkersUDP
		} else {
			c.Workers = DefaultWorkersTCP
		}
	}
	if c.Domain == "" {
		c.Domain = "gosip.test"
	}
	if c.IPCMode == "" {
		c.IPCMode = ipc.ModeChan
	}
	if c.ConnMgr == "" {
		c.ConnMgr = connmgr.KindScan
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Second
	}
	if c.SupervisorGrace <= 0 {
		c.SupervisorGrace = c.IdleTimeout / 2
	}
	if c.IdleCheckInterval <= 0 {
		c.IdleCheckInterval = 500 * time.Millisecond
	}
	if c.IPCTimeout == 0 {
		c.IPCTimeout = 2 * time.Second
	}
	if c.TimerInterval <= 0 {
		c.TimerInterval = 100 * time.Millisecond
	}
	if c.TimerImpl == "" {
		c.TimerImpl = timerlist.ImplWheel
	}
	if c.LocSweepInterval <= 0 {
		c.LocSweepInterval = time.Second
	}
	if c.Profile == nil {
		c.Profile = metrics.NewProfile()
	}
	return c
}

// Server is a running SIP proxy.
type Server interface {
	// Addr returns the bound SIP address ("host:port").
	Addr() string
	// Engine exposes the proxy core (for inspection in tests).
	Engine() *proxy.Engine
	// Profile exposes the server's instrumentation.
	Profile() *metrics.Profile
	// Location exposes the location service (examples pre-provision it).
	Location() *location.Service
	// DB exposes the simulated user store.
	DB() *userdb.DB
	// Timers exposes the timer scheduler (tests inspect its policy).
	Timers() timerlist.Scheduler
	// Tracer exposes the flight recorder (nil when tracing is disabled).
	Tracer() *trace.Recorder
	// Close shuts the server down and releases all resources.
	Close() error
}

// New starts a server of the configured architecture.
func New(cfg Config) (Server, error) {
	cfg = cfg.withDefaults()
	if cfg.IPCMode != ipc.ModeChan && cfg.IPCMode != ipc.ModeUnix {
		return nil, fmt.Errorf("core: unknown IPC mode %q", cfg.IPCMode)
	}
	if cfg.ConnMgr != connmgr.KindScan && cfg.ConnMgr != connmgr.KindPQueue {
		return nil, fmt.Errorf("core: unknown connection manager %q", cfg.ConnMgr)
	}
	if cfg.TimerImpl != timerlist.ImplHeap && cfg.TimerImpl != timerlist.ImplWheel {
		return nil, fmt.Errorf("core: unknown timer implementation %q", cfg.TimerImpl)
	}
	switch cfg.Overload.Policy {
	case "", overload.PolicyNone, overload.PolicyThreshold, overload.PolicyOccupancy:
	default:
		return nil, fmt.Errorf("core: unknown overload policy %q", cfg.Overload.Policy)
	}
	if cfg.TLS != nil && cfg.Arch != ArchTCP && cfg.Arch != ArchThreaded {
		return nil, fmt.Errorf("core: TLS transport requires a stream architecture, not %q", cfg.Arch)
	}
	switch cfg.Arch {
	case ArchUDP, ArchSCTP:
		return newUDPServer(cfg)
	case ArchTCP:
		return newTCPServer(cfg)
	case ArchThreaded:
		return newThreadedServer(cfg)
	default:
		return nil, fmt.Errorf("core: unknown architecture %q", cfg.Arch)
	}
}

// substrate bundles the pieces every architecture shares: the proxy engine
// and its stores, the pipeline body every received message runs (process),
// and the Server accessors.
type substrate struct {
	cfg    Config
	addr   string // the bound listen address, set by bind
	engine *proxy.Engine
	prof   *metrics.Profile
	loc    *location.Service
	db     *userdb.DB
	timers timerlist.Scheduler
	txns   *transaction.Table
	ctrl   *overload.Controller
	rec    *trace.Recorder
	// tls is non-nil when the server speaks TLS on its stream sockets. The
	// whole stream plumbing (StreamConn framing, connmgr, fd cache) is
	// unchanged — TLS is applied at the net.Conn seam
	// in wrapStream/dialStream, so steady-state cost converges to the TCP
	// persistent path once handshakes are amortized.
	tls *transport.TLSContext
	// tlsPinned counts sends that would have used the fd cache or fd-IPC
	// fabric but were pinned to the owning worker because a *tls.Conn's
	// crypto state lives in user space and cannot travel with the fd.
	tlsPinned *metrics.Counter
	// obsBusy caches ctrl.NeedsObserve so the per-message path skips two
	// time.Now calls for policies that ignore busy time.
	obsBusy bool

	parseHist    *metrics.Histogram
	parseErrs    *metrics.Counter
	observeParse func(*sipmsg.Message, time.Duration) // bound once; avoids a closure per message

	// tcpWriteCalls/tcpWriteMsgs instrument every stream connection's write
	// side: one write call per message.
	tcpWriteCalls *metrics.Counter
	tcpWriteMsgs  *metrics.Counter
}

func newSubstrate(cfg Config) (*substrate, error) {
	prof := cfg.Profile
	// Pre-create the full standard name set so every metric a server can
	// emit is present in /metrics and reports from the start.
	prof.RegisterStandard()
	var tlsCtx *transport.TLSContext
	if cfg.TLS != nil {
		var err error
		tlsCtx, err = transport.NewTLSContext(transport.TLSOptions{
			Cert:               cfg.TLS.Cert,
			RootCAs:            cfg.TLS.RootCAs,
			InsecureSkipVerify: cfg.TLS.InsecureSkipVerify,
			Resume:             cfg.TLS.Resume,
			SessionCache:       cfg.TLS.SessionCache,
			TicketRotate:       cfg.TLS.TicketRotate,
			HandshakeTimeout:   cfg.TLS.HandshakeTimeout,
			Profile:            prof,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	// TimerImpl was validated in New; a zero Config (tests construct
	// substrates directly) falls back to the wheel inside NewScheduler.
	timers, err := timerlist.NewScheduler(cfg.TimerImpl, timerlist.Options{
		Interval: cfg.TimerInterval,
		Shards:   cfg.TimerShards,
		Profile:  prof,
	})
	if err != nil {
		panic(err) // unreachable: New validates cfg.TimerImpl
	}
	prof.SetGauge(metrics.GaugeTimersPending, func() float64 { return float64(timers.Len()) })
	prof.SetGauge(metrics.GaugeTimersCancelledResident, func() float64 { return float64(timers.CancelledResident()) })
	prof.SetGauge(metrics.GaugeTimersScheduled, func() float64 { n, _ := timers.Stats(); return float64(n) })
	prof.SetGauge(metrics.GaugeTimersFired, func() float64 { _, n := timers.Stats(); return float64(n) })
	s := &substrate{
		cfg:       cfg,
		prof:      prof,
		tls:       tlsCtx,
		tlsPinned: prof.Counter(metrics.MetricTLSPinnedSends),
		loc: location.NewService(location.Options{
			Profile:       prof,
			SweepInterval: cfg.LocSweepInterval,
		}),
		db:        userdb.New(cfg.DB, prof),
		timers:    timers,
		txns:      transaction.NewTable(cfg.Txn, timers, prof),
		parseHist: prof.Histogram(metrics.StageParse),
		parseErrs: prof.Counter(metrics.MetricParseErrors),

		tcpWriteCalls: prof.Counter(metrics.MetricTCPWriteCalls),
		tcpWriteMsgs:  prof.Counter(metrics.MetricTCPWriteMsgs),
	}
	s.rec = trace.NewRecorder(cfg.Trace, prof)
	s.observeParse = s.observeParsed
	s.ctrl = overload.New(cfg.Overload, cfg.Workers, s.txns.Pending, prof)
	s.obsBusy = s.ctrl.NeedsObserve()
	return s, nil
}

// observeParsed is the stream-reader parse observer: the shared parse
// histogram plus, for requests, the start of the per-call trace timeline.
// The timeline's origin is backdated by the parse duration so the parse
// span sits at offset zero and end-to-end latency covers it.
func (s *substrate) observeParsed(m *sipmsg.Message, d time.Duration) {
	s.parseHist.Record(d)
	if s.rec != nil && m.IsRequest {
		t0 := time.Now().Add(-d)
		s.rec.Start(m, t0).Add(trace.StageParse, t0, d)
	}
}

// close runs after the architecture has joined every goroutine that can
// receive a message, so no transaction can start once the table is emptied.
func (s *substrate) close() {
	s.txns.TerminateAll()
	s.timers.Close()
	s.loc.Close()
	s.tls.Close()
}

// streamKind names the transport spoken on the server's stream sockets —
// what goes into Via headers and the engine's reliability decision.
func (s *substrate) streamKind() transport.Kind {
	if s.tls != nil {
		return transport.TLS
	}
	return transport.TCP
}

// bind records the address the architecture listens on and builds the
// proxy engine for it; host and port go into the engine's Via.
func (s *substrate) bind(kind transport.Kind, addr, host string, port int) {
	mode := proxy.ModeProxy
	if s.cfg.Redirect {
		mode = proxy.ModeRedirect
	}
	var retryAfter time.Duration
	if s.ctrl.Active() {
		// Locally generated 503s (IPC timeouts, forward failures) advertise
		// the same back-off as admission rejections.
		retryAfter = s.ctrl.RetryAfter()
	}
	s.addr = addr
	s.engine = proxy.NewEngine(proxy.Config{
		Mode:         mode,
		Auth:         s.cfg.Auth,
		Routes:       s.cfg.Routes,
		RecordRoute:  s.cfg.RecordRoute,
		Stateful:     s.cfg.Stateful,
		Reliable:     kind == transport.TCP || kind == transport.TLS || s.cfg.Arch == ArchSCTP,
		ViaTransport: string(kind),
		ViaHost:      host,
		ViaPort:      port,
		Domain:       s.cfg.Domain,
		RetryAfter:   retryAfter,
	}, s.loc, s.db, s.txns, s.prof)
}

// wrapStream applies the configured stream-socket policy to a newly
// established TCP connection, accepted or dialed: Nagle off (SIP messages
// are small and latency-sensitive), the optional socket buffer sizes,
// write instrumentation and the parse-time observer. Every stream
// connection a server touches goes through here, so the TCP knobs apply
// uniformly across the §3.1 and §6 architectures.
func (s *substrate) wrapStream(nc net.Conn) *transport.StreamConn {
	s.tuneSocket(nc)
	if _, isTLS := nc.(*tls.Conn); s.tls != nil && !isTLS {
		// Accepted connections get the TLS server layer here; the handshake
		// itself runs later, in the owning worker's reader
		// (handshakeAccepted), so a slow client can't stall the supervisor's
		// accept loop. Dialed connections arrive as *tls.Conn and skip this.
		nc = s.tls.Server(nc)
	}
	sc := transport.NewStreamConn(nc)
	sc.InstrumentWrites(s.tcpWriteCalls, s.tcpWriteMsgs)
	sc.SetParseObserver(s.observeParse)
	return sc
}

// tuneSocket sets TCP_NODELAY on a raw TCP connection; anything else (a
// *tls.Conn, whose socket was tuned before the TLS layer hid it) is left
// alone.
func (s *substrate) tuneSocket(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
}

// dialStream establishes an outbound stream connection with the same
// policy wrapStream applies to accepted ones. Under TLS the handshake runs
// inline (the dialer needs the connection usable before its first send) and
// its duration is returned so the caller can attach a handshake span to the
// request that paid for it; hs is 0 for plain TCP and for resumption-free
// dials that never happened.
func (s *substrate) dialStream(hostport string) (sc *transport.StreamConn, hs time.Duration, err error) {
	nc, err := net.DialTimeout("tcp", hostport, 10*time.Second)
	if err != nil {
		return nil, 0, fmt.Errorf("core: dial tcp %q: %w", hostport, err)
	}
	if s.tls == nil {
		return s.wrapStream(nc), 0, nil
	}
	// Socket options must land on the raw TCP socket before the TLS layer
	// hides it behind a *tls.Conn.
	s.tuneSocket(nc)
	tconn := s.tls.Client(nc, hostport)
	hs, err = s.tls.Handshake(tconn)
	if err != nil {
		_ = nc.Close()
		return nil, 0, fmt.Errorf("core: tls dial %q: %w", hostport, err)
	}
	return s.wrapStream(tconn), hs, nil
}

// handshakeAccepted completes the TLS handshake on an accepted connection,
// from the owning worker's reader goroutine so handshakes run concurrently
// and a stalled client costs one blocked reader, not the supervisor. The
// measured duration is stashed on the connection for the first traced
// request to claim. No-op on plain TCP.
func (s *substrate) handshakeAccepted(c *conn.TCPConn) error {
	if s.tls == nil {
		return nil
	}
	d, err := s.tls.Handshake(c.Stream().NetConn())
	if err != nil {
		return err
	}
	if d > 0 {
		c.SetHandshake(time.Now(), d)
	}
	return nil
}

// parseOrCount wraps sipmsg.Parse with stage timing and drop accounting
// shared by all datagram receivers.
func (s *substrate) parseOrCount(data []byte) (*sipmsg.Message, bool) {
	t0 := time.Now()
	m, err := sipmsg.Parse(data)
	d := time.Since(t0)
	s.parseHist.Record(d)
	if err != nil {
		s.parseErrs.Inc()
		return nil, false
	}
	if s.rec != nil && m.IsRequest {
		s.rec.Start(m, t0).Add(trace.StageParse, t0, d)
	}
	return m, true
}

// admit runs the overload controller for one newly received message,
// before any transaction or database work. Responses and in-dialog
// requests always pass — only new INVITE/REGISTER work is shed, and a
// retransmission of a request the server already admitted passes too (its
// transaction absorbs it cheaply; rejecting it would kill a call the
// server has already invested in). On rejection the 503 + Retry-After has
// already been sent when admit returns false; queued is how many other
// messages of the receiving worker are waiting for it or in process (0 for
// UDP, which has no per-worker queue).
func (s *substrate) admit(send proxy.Sender, m *sipmsg.Message, origin any, queued int) bool {
	if !s.ctrl.Active() {
		return true
	}
	if m.IsResponse() || (m.Method != sipmsg.INVITE && m.Method != sipmsg.REGISTER) {
		return true
	}
	tc := trace.Of(m)
	tA := time.Now()
	ok, ra := s.ctrl.Decide(queued)
	if !ok {
		if key, err := m.TransactionKey(); err == nil && s.txns.Match(key) != nil {
			ok = true // retransmission of admitted work
		}
	}
	if ok {
		s.ctrl.CountAdmit()
		tc.Span(trace.StageAdmission, tA)
		return true
	}
	s.ctrl.CountReject(ra)
	resp := sipmsg.NewResponse(m, sipmsg.StatusServiceUnavail, sipmsg.NewTag())
	resp.Add("Retry-After", strconv.Itoa(overload.RetryAfterSeconds(ra)))
	_ = send.ToOrigin(origin, resp)
	tc.Span(trace.StageAdmission, tA)
	tc.Finish(sipmsg.StatusServiceUnavail)
	return false
}

// process is the pipeline body of every architecture, run once the
// receiver's transport-specific preamble is done: admission control before
// any transaction or database work — a rejected request costs one 503 and
// nothing else — then the engine, then the receiver's reference to m is
// released (the engine retained the message if it needed it). queued is the
// receiving worker's load signal for the threshold policy.
func (s *substrate) process(send proxy.Sender, m *sipmsg.Message, origin any, queued int) {
	if s.admit(send, m, origin, queued) {
		s.handleTimed(send, m, origin)
	}
	m.Release()
}

// handleTimed runs the proxy engine on one message, feeding the processing
// time to the occupancy estimator when that policy is active.
func (s *substrate) handleTimed(send proxy.Sender, m *sipmsg.Message, origin any) {
	if !s.obsBusy {
		s.engine.Handle(send, m, origin)
		return
	}
	t0 := time.Now()
	s.engine.Handle(send, m, origin)
	s.ctrl.Observe(time.Since(t0))
}

func (s *substrate) Addr() string                { return s.addr }
func (s *substrate) Engine() *proxy.Engine       { return s.engine }
func (s *substrate) Profile() *metrics.Profile   { return s.prof }
func (s *substrate) Location() *location.Service { return s.loc }
func (s *substrate) DB() *userdb.DB              { return s.db }
func (s *substrate) Timers() timerlist.Scheduler { return s.timers }
func (s *substrate) Tracer() *trace.Recorder     { return s.rec }
