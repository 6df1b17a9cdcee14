// Command sipproxyd runs the SIP proxy as a standalone daemon. The flags
// expose every architectural variable the paper studies, so the same
// binary can run the baseline, either fix, or the §6 alternatives:
//
//	sipproxyd -arch udp -addr 127.0.0.1:5060
//	sipproxyd -arch tcp -fdcache -connmgr pqueue
//	sipproxyd -arch tcp -ipc unix -idle-timeout 10s
//	sipproxyd -arch threaded
//	sipproxyd -arch udp -overload threshold -overload-max-pending 64 -retry-after 2s
//
// With -metrics-addr set the daemon also serves live introspection over
// HTTP: Prometheus text at /metrics, the human profile report at /profile,
// and the Go profiler under /debug/pprof/ — so a running proxy can be
// profiled under load the way the paper profiled OpenSER with OProfile.
//
// The daemon provisions -users synthetic subscribers (user0…userN-1) at
// startup and prints a profile report on SIGINT/SIGTERM.
package main

import (
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/ipc"
	"gosip/internal/metrics"
	"gosip/internal/overload"
	"gosip/internal/timerlist"
	"gosip/internal/trace"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// startMetrics binds addr and serves the introspection mux on it, with the
// flight recorder's /trace and /trace.json mounted alongside. The bound
// address is returned so callers (and tests) can use ":0".
func startMetrics(addr string, prof *metrics.Profile, rec *trace.Recorder) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := metrics.NewServeMux(prof)
	trace.Register(mux, rec)
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	return hs, ln.Addr(), nil
}

func main() {
	var (
		arch         = flag.String("arch", "tcp", "architecture: udp, tcp, threaded, sctpsim")
		addr         = flag.String("addr", "127.0.0.1:5060", "listen address")
		workers      = flag.Int("workers", 0, "worker count (0 = architecture default); with -arch udp also the socket count, one SO_REUSEPORT socket per worker")
		stateless    = flag.Bool("stateless", false, "run as a stateless proxy")
		redirect     = flag.Bool("redirect", false, "run as a redirection server (302) instead of proxying")
		auth         = flag.Bool("auth", false, "enable digest authentication (401/407 challenges)")
		recordRoute  = flag.Bool("record-route", false, "insert Record-Route so in-dialog requests stay on the proxy path")
		domain       = flag.String("domain", "gosip.test", "served SIP domain")
		users        = flag.Int("users", 10000, "synthetic users to provision")
		ipcMode      = flag.String("ipc", "unix", "TCP supervisor IPC: unix or chan")
		fdcache      = flag.Bool("fdcache", false, "enable the per-worker fd cache (Figure 4)")
		fdcacheCap   = flag.Int("fdcache-cap", 0, "fd cache capacity per worker (0 = unbounded)")
		mgr          = flag.String("connmgr", "scan", "idle-connection strategy: scan or pqueue (Figure 5)")
		idleTimeout  = flag.Duration("idle-timeout", 10*time.Second, "idle connection timeout (paper §4.3)")
		grace        = flag.Duration("grace", 5*time.Second, "supervisor grace before destroying returned connections")
		checkEvery   = flag.Duration("idle-check", 500*time.Millisecond, "idle check floor interval")
		penalty      = flag.Duration("supervisor-penalty", 0, "per-request supervisor delay (models §4.3 starvation)")
		ipcTimeout   = flag.Duration("ipc-timeout", 0, "worker deadline for an fd request against a stalled supervisor, and with -ipc unix for a send to a peer that stopped reading (0 = 2s, negative = none)")
		olPolicy     = flag.String("overload", "none", "overload admission policy: none, threshold, occupancy")
		olPending    = flag.Int("overload-max-pending", 0, "threshold policy: in-flight transaction budget (0 = 4x workers)")
		olQueue      = flag.Int("overload-max-queue", 0, "threshold policy: per-worker budget of messages waiting for or in process on the receiving worker (0 = 64)")
		olTarget     = flag.Float64("overload-target", 0, "occupancy policy: target worker busy fraction (0 = 0.85)")
		retryAfter   = flag.Duration("retry-after", 0, "base Retry-After advertised on 503 rejections (0 = 1s)")
		udpBatch     = flag.Int("udp-batch", 0, "datagrams per recvmmsg/sendmmsg call (0/1 = unbatched baseline)")
		udpLinger    = flag.Duration("udp-linger", 0, "egress batch flush deadline (0 = default; needs -udp-batch > 1)")
		soRcvbuf     = flag.Int("so-rcvbuf", 0, "requested SO_RCVBUF for proxy sockets (0 = kernel default)")
		soSndbuf     = flag.Int("so-sndbuf", 0, "requested SO_SNDBUF for proxy sockets (0 = kernel default)")
		timerImpl    = flag.String("timer-impl", "wheel", "timer data structure: wheel (sharded timing wheel) or heap (paper-faithful binary heap)")
		timerShards  = flag.Int("timer-shards", 0, "timing-wheel shard count (0 = GOMAXPROCS; heap ignores this)")
		txnShards    = flag.Int("txn-shards", 0, "transaction-table shards, rounded to a power of two (0 = max(16, 4x GOMAXPROCS))")
		txnT1        = flag.Duration("t1", 0, "RFC 3261 T1 round-trip estimate: base retransmit interval for Timers A/E/G (0 = 500ms)")
		txnT2        = flag.Duration("t2", 0, "RFC 3261 T2 retransmit-interval cap for Timers E/G (0 = 4s)")
		txnTimerB    = flag.Duration("timer-b", 0, "client transaction timeout, Timers B/F (0 = 64*T1)")
		txnTimerD    = flag.Duration("timer-d", 0, "completed non-2xx INVITE transaction lifetime, Timer D (0 = 32s)")
		txnTimerH    = flag.Duration("timer-h", 0, "ACK wait after a non-2xx INVITE final, Timer H (0 = 64*T1)")
		txnLinger    = flag.Duration("txn-linger", 0, "completed-transaction absorb window for non-INVITE and 2xx finals, Timers J/K (0 = 2s)")
		dbLatency    = flag.Duration("db-latency", 0, "simulated user-database lookup latency")
		dbBackend    = flag.String("db-backend", "memory", "user-database driver: memory or sql (latency-modelled; uses -db-latency per query)")
		dbPool       = flag.Int("db-pool", 0, "user-database connection-pool size (0 = unbounded)")
		authCache    = flag.Int("auth-cache", 0, "credential-cache entries in front of the user database (0 = disabled)")
		authCacheTTL = flag.Duration("auth-cache-ttl", 0, "credential-cache entry lifetime (0 = 60s when the cache is enabled)")
		locShards    = flag.Int("loc-shards", 0, "location-service shards, rounded to a power of two (0 = 16)")
		routesFlag   = flag.String("routes", "", "static next hops: domain=host:port[,domain=host:port...]")
		dropRx       = flag.Float64("drop-rx", 0, "UDP inbound datagram loss probability (fault injection)")
		dropTx       = flag.Float64("drop-tx", 0, "UDP outbound datagram loss probability (fault injection)")
		tlsOn        = flag.Bool("tls", false, "speak TLS on the stream listener (tcp/threaded archs); self-signs a certificate unless -tls-cert/-tls-key are given")
		tlsCert      = flag.String("tls-cert", "", "PEM certificate file for -tls (empty = runtime self-signed)")
		tlsKey       = flag.String("tls-key", "", "PEM private-key file for -tls (empty = runtime self-signed)")
		tlsResume    = flag.Bool("tls-resume", true, "arm the TLS client session cache so upstream redials resume")
		tlsRotate    = flag.Duration("tls-ticket-rotate", 0, "session-ticket key rotation period (0 = crypto/tls internal rotation)")
		tlsHsTimeout = flag.Duration("tls-handshake-timeout", 0, "per-handshake deadline (0 = 5s)")
		metricsAddr  = flag.String("metrics-addr", "", "HTTP address for /metrics, /profile, and /debug/pprof (empty = disabled)")
		traceSample  = flag.Float64("trace-sample", 0, "head-sample rate for per-call traces (0 = only slow/failed calls; needs -trace-slow or itself > 0 to enable tracing)")
		traceSlow    = flag.Duration("trace-slow", 0, "retain any call whose end-to-end latency reaches this (0 = no slow threshold)")
		traceRing    = flag.Int("trace-ring", 0, "flight-recorder capacity in retained traces (0 = 256)")
	)
	flag.Parse()

	switch overload.Policy(*olPolicy) {
	case overload.PolicyNone, overload.PolicyThreshold, overload.PolicyOccupancy:
	default:
		fmt.Fprintf(os.Stderr, "sipproxyd: unknown -overload policy %q\n", *olPolicy)
		os.Exit(1)
	}

	routes := map[string]string{}
	if *routesFlag != "" {
		for _, pair := range strings.Split(*routesFlag, ",") {
			eq := strings.IndexByte(pair, '=')
			if eq <= 0 {
				fmt.Fprintf(os.Stderr, "sipproxyd: bad -routes entry %q\n", pair)
				os.Exit(1)
			}
			routes[strings.ToLower(strings.TrimSpace(pair[:eq]))] = strings.TrimSpace(pair[eq+1:])
		}
	}

	cfg := core.Config{
		Arch:              core.Architecture(*arch),
		Addr:              *addr,
		Workers:           *workers,
		Stateful:          !*stateless,
		Redirect:          *redirect,
		Auth:              *auth,
		RecordRoute:       *recordRoute,
		Domain:            *domain,
		IPCMode:           ipc.Mode(*ipcMode),
		FDCache:           *fdcache,
		FDCacheCapacity:   *fdcacheCap,
		ConnMgr:           connmgr.Kind(*mgr),
		IdleTimeout:       *idleTimeout,
		SupervisorGrace:   *grace,
		IdleCheckInterval: *checkEvery,
		SupervisorPenalty: *penalty,
		IPCTimeout:        *ipcTimeout,
		UDPBatch:          *udpBatch,
		EgressLinger:      *udpLinger,
		SoRcvBuf:          *soRcvbuf,
		SoSndBuf:          *soSndbuf,
		TimerImpl:         timerlist.Impl(*timerImpl),
		TimerShards:       *timerShards,
		Overload: overload.Config{
			Policy:          overload.Policy(*olPolicy),
			MaxPending:      *olPending,
			MaxQueue:        *olQueue,
			TargetOccupancy: *olTarget,
			RetryAfter:      *retryAfter,
		},
	}
	cfg.Txn.Shards = *txnShards
	cfg.Txn.T1 = *txnT1
	cfg.Txn.T2 = *txnT2
	cfg.Txn.TimerB = *txnTimerB
	cfg.Txn.TimerD = *txnTimerD
	cfg.Txn.TimerH = *txnTimerH
	cfg.Txn.Linger = *txnLinger
	cfg.LocShards = *locShards
	cfg.DB.PoolSize = *dbPool
	cfg.DB.Cache = userdb.CacheConfig{Entries: *authCache, TTL: *authCacheTTL}
	switch *dbBackend {
	case "memory":
		cfg.DB.LookupLatency = *dbLatency
	case "sql":
		// The SQL driver carries the latency itself, per Fetch.
		cfg.DB.Backend = userdb.NewSQLBackend(*dbLatency)
	default:
		fmt.Fprintf(os.Stderr, "sipproxyd: unknown -db-backend %q\n", *dbBackend)
		os.Exit(1)
	}
	cfg.Routes = routes
	cfg.Faults = core.FaultConfig{DropRx: *dropRx, DropTx: *dropTx}
	cfg.Trace = trace.Config{Sample: *traceSample, Slow: *traceSlow, Ring: *traceRing}

	if *tlsOn {
		var cert tls.Certificate
		var pool *x509.CertPool
		var err error
		if *tlsCert != "" || *tlsKey != "" {
			cert, err = tls.LoadX509KeyPair(*tlsCert, *tlsKey)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sipproxyd: load TLS keypair: %v\n", err)
				os.Exit(1)
			}
		} else {
			// No keypair on disk: self-sign at startup for the listen host.
			// Nothing is written anywhere; clients need -tls-insecure or the
			// printed fingerprint workflow of their tooling.
			host := *addr
			if h, _, splitErr := net.SplitHostPort(*addr); splitErr == nil && h != "" {
				host = h
			}
			cert, pool, err = transport.GenerateSelfSigned(*domain, host)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sipproxyd: self-signed certificate: %v\n", err)
				os.Exit(1)
			}
		}
		cfg.TLS = &core.TLSSettings{
			Cert:             cert,
			RootCAs:          pool,
			Resume:           *tlsResume,
			TicketRotate:     *tlsRotate,
			HandshakeTimeout: *tlsHsTimeout,
		}
	}

	srv, err := core.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sipproxyd: %v\n", err)
		os.Exit(1)
	}
	srv.DB().ProvisionN(*users, *domain)
	fmt.Printf("sipproxyd: %s listening on %s (%s), %d users provisioned\n",
		*arch, srv.Addr(), srv.Engine().Describe(), *users)
	if cfg.TLS != nil {
		src := "self-signed (runtime)"
		if *tlsCert != "" {
			src = *tlsCert
		}
		fmt.Printf("sipproxyd: TLS: cert=%s resume=%v ticket-rotate=%v\n", src, *tlsResume, *tlsRotate)
	}
	if us, ok := srv.(interface{ ShardCount() int }); ok {
		fmt.Printf("sipproxyd: udp: %d sockets on %s, udp-batch=%d\n", us.ShardCount(), srv.Addr(), *udpBatch)
	}
	if *timerImpl != "wheel" || *timerShards > 0 || *txnShards > 0 {
		fmt.Printf("sipproxyd: locking: timer-impl=%s timer-shards=%d txn-shards=%d\n",
			*timerImpl, *timerShards, *txnShards)
	}
	if *locShards > 0 || *authCache > 0 || *dbBackend != "memory" {
		fmt.Printf("sipproxyd: registrar: loc-shards=%d db-backend=%s auth-cache=%d auth-cache-ttl=%v\n",
			srv.Location().ShardCount(), *dbBackend, *authCache, *authCacheTTL)
	}
	if *soRcvbuf > 0 || *soSndbuf > 0 {
		// Report what the kernel actually granted (it may clamp to
		// rmem_max/wmem_max, and on Linux it doubles the request).
		if bs, ok := srv.(interface{ BufferSizes() (int, int) }); ok {
			rcv, snd := bs.BufferSizes()
			if rcv == 0 && snd == 0 {
				fmt.Printf("sipproxyd: socket buffers requested rcv=%d snd=%d (effective sizes unavailable)\n", *soRcvbuf, *soSndbuf)
			} else {
				fmt.Printf("sipproxyd: socket buffers requested rcv=%d snd=%d, effective rcv=%d snd=%d\n", *soRcvbuf, *soSndbuf, rcv, snd)
			}
		} else {
			fmt.Printf("sipproxyd: socket buffers requested rcv=%d snd=%d (applied per accepted connection)\n", *soRcvbuf, *soSndbuf)
		}
	}

	if cfg.Trace.Enabled() {
		fmt.Printf("sipproxyd: tracing: sample=%g slow=%v ring=%d\n",
			*traceSample, *traceSlow, *traceRing)
	}

	if *metricsAddr != "" {
		hs, bound, err := startMetrics(*metricsAddr, srv.Profile(), srv.Tracer())
		if err != nil {
			fmt.Fprintf(os.Stderr, "sipproxyd: metrics listener: %v\n", err)
			os.Exit(1)
		}
		defer hs.Close()
		fmt.Printf("sipproxyd: metrics on http://%s/metrics (also /profile, /trace, /debug/pprof/)\n", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	snap := srv.Profile().Snapshot()
	fmt.Println()
	fmt.Print(snap.Report(0))
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sipproxyd: close: %v\n", err)
		os.Exit(1)
	}
}
