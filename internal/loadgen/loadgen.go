// Package loadgen is the benchmark manager of Ram et al. §4.2: it creates
// thousands of simulated SIP phones, registers them with the proxy in a
// setup phase that is excluded from measurement, then has every caller
// place a fixed number of calls to its designated callee and reports
// aggregate throughput in operations per second, where one operation is a
// single SIP transaction (an INVITE or a BYE) — so every completed call
// contributes two operations.
package loadgen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gosip/internal/metrics"
	"gosip/internal/phone"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// Scenario selects what the measured phase does.
type Scenario string

// Scenarios.
const (
	// ScenarioCalls is the paper's workload: invite+bye call loops.
	ScenarioCalls Scenario = "calls"
	// ScenarioRegistrations re-registers every phone in a loop — the
	// registration scenario of the related work (Nahum et al.). One
	// operation = one REGISTER transaction.
	ScenarioRegistrations Scenario = "registrations"
)

// Config describes one experiment run.
type Config struct {
	// Scenario selects the measured workload (default ScenarioCalls).
	Scenario Scenario
	// Transport is UDP, TCP, or TLS.
	Transport transport.Kind
	// TLS is the fleet's shared TLS context when Transport is TLS: every
	// phone dials through it, so one client session cache serves them all
	// and reconnects resume instead of paying full handshakes.
	TLS *transport.TLSContext
	// ProxyAddr is the system under test.
	ProxyAddr string
	// Domain is the SIP domain.
	Domain string
	// Pairs is the number of concurrent caller/callee pairs ("clients" in
	// the paper's figures: each simultaneous client is one active caller).
	Pairs int
	// CallsPerCaller is how many calls each caller places (closed loop).
	CallsPerCaller int
	// OpsPerConn is the TCP reconnect policy (0 = persistent connections).
	OpsPerConn int
	// ResponseTimeout and MaxRetries tune phone patience.
	ResponseTimeout time.Duration
	MaxRetries      int
	// RejectRetries and BackoffCap configure how callers honor overload
	// rejections (503 + Retry-After); see phone.Config.
	RejectRetries int
	BackoffCap    time.Duration
	// RegisterConcurrency bounds parallel registrations during setup.
	RegisterConcurrency int
	// UserOffset shifts the user index range so multiple runs against one
	// server use distinct users.
	UserOffset int
}

func (c Config) withDefaults() Config {
	if c.Scenario == "" {
		c.Scenario = ScenarioCalls
	}
	if c.Pairs <= 0 {
		c.Pairs = 1
	}
	if c.CallsPerCaller <= 0 {
		c.CallsPerCaller = 1
	}
	if c.RegisterConcurrency <= 0 {
		c.RegisterConcurrency = 32
	}
	return c
}

// Result aggregates a run.
type Result struct {
	// Duration is the measured phase wall time.
	Duration time.Duration
	// Ops is the number of completed transactions (INVITE + BYE).
	Ops int
	// Throughput is Ops / Duration in operations per second — the metric
	// of Figures 3, 4, and 5.
	Throughput float64
	// CallsCompleted and CallsFailed partition the attempts.
	CallsCompleted int
	CallsFailed    int
	// The Failed* counters break CallsFailed down by terminal reason
	// (they sum to it): no final response within the retransmission
	// budget, a final 503, any other non-2xx status, or a socket-level
	// failure. Under overload these tell UDP collapse (timeouts) apart
	// from TCP collapse (resets) and from deliberate shedding (503s).
	FailedTimeout   int
	FailedRejected  int
	FailedStatus    int
	FailedTransport int
	// Retransmits counts UDP client retransmissions.
	Retransmits int
	// Reconnects counts TCP connection re-establishments.
	Reconnects int
	// Rejected counts overload rejections (503 + Retry-After) callers
	// received; Throughput above already excludes them, so together they
	// report goodput versus offered load honestly.
	Rejected int
	// BackoffTime is the total time callers spent honoring Retry-After.
	BackoffTime time.Duration
	// MeanCallLatency and MaxCallLatency summarize completed-call wall
	// times across all callers; P50/P95/P99CallLatency are percentiles of
	// the same distribution.
	MeanCallLatency time.Duration
	MaxCallLatency  time.Duration
	P50CallLatency  time.Duration
	P95CallLatency  time.Duration
	P99CallLatency  time.Duration
	// LatencyDist is the merged completed-call latency distribution the
	// percentiles above are read from: per-phone log₂ histograms merged
	// at collection time, so memory stays constant regardless of call
	// count (a million-call run retains no per-call samples).
	LatencyDist metrics.HistogramSnapshot
}

// atomicCounter is a tiny wrapper to keep the measured-phase goroutines
// allocation-free.
type atomicCounter struct{ n int64 }

func (c *atomicCounter) add(d int64) { atomic.AddInt64(&c.n, d) }
func (c *atomicCounter) load() int64 { return atomic.LoadInt64(&c.n) }

// percentile returns the q-th percentile (0 < q <= 100) of sorted samples.
// It is the exact order statistic, kept as the reference implementation the
// histogram's bucketed quantiles are verified against in tests.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q/100+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String renders the result as one report line.
func (r Result) String() string {
	return fmt.Sprintf("%8.0f ops/s  (%d ops in %v; %d calls ok, %d failed%s, %d rej, %d rtx, %d reconn; lat p50=%v p99=%v max=%v)",
		r.Throughput, r.Ops, r.Duration.Round(time.Millisecond),
		r.CallsCompleted, r.CallsFailed, r.failureBreakdown(), r.Rejected, r.Retransmits, r.Reconnects,
		r.P50CallLatency.Round(time.Microsecond), r.P99CallLatency.Round(time.Microsecond),
		r.MaxCallLatency.Round(time.Microsecond))
}

// failureBreakdown renders the per-reason failure split, or "" when no
// call failed (the common case — keep the healthy report line short).
func (r Result) failureBreakdown() string {
	if r.CallsFailed == 0 {
		return ""
	}
	return fmt.Sprintf(" [%d timeout/%d 503/%d status/%d transport]",
		r.FailedTimeout, r.FailedRejected, r.FailedStatus, r.FailedTransport)
}

// CallerUser and CalleeUser name the i-th pair's users.
func (c Config) CallerUser(i int) string { return userdb.UserName(c.UserOffset + 2*i) }

// CalleeUser names the i-th pair's callee.
func (c Config) CalleeUser(i int) string { return userdb.UserName(c.UserOffset + 2*i + 1) }

// UsersNeeded is how many users must be provisioned starting at UserOffset.
func (c Config) UsersNeeded() int { return 2 * c.Pairs }

// Run executes the two-phase experiment and blocks until every caller has
// finished. The proxy must already have UsersNeeded() users provisioned
// (see userdb.DB.ProvisionN).
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	phoneCfg := func(user string, opsPerConn int) phone.Config {
		return phone.Config{
			Transport:       cfg.Transport,
			TLS:             cfg.TLS,
			ProxyAddr:       cfg.ProxyAddr,
			Domain:          cfg.Domain,
			User:            user,
			Password:        userdb.PasswordFor(user),
			OpsPerConn:      opsPerConn,
			ResponseTimeout: cfg.ResponseTimeout,
			MaxRetries:      cfg.MaxRetries,
			RejectRetries:   cfg.RejectRetries,
			BackoffCap:      cfg.BackoffCap,
		}
	}

	// --- Phase 1: create and register all phones (not measured). ---
	callees := make([]*phone.Phone, cfg.Pairs)
	callers := make([]*phone.Phone, cfg.Pairs)
	defer func() {
		for _, p := range callers {
			if p != nil {
				p.Close()
			}
		}
		for _, p := range callees {
			if p != nil {
				p.Close()
			}
		}
	}()

	type idxErr struct {
		i   int
		err error
	}
	sem := make(chan struct{}, cfg.RegisterConcurrency)
	errs := make(chan idxErr, 2*cfg.Pairs)
	var wg sync.WaitGroup
	setup := func(i int, role phone.Role) {
		defer wg.Done()
		sem <- struct{}{}
		defer func() { <-sem }()
		var user string
		var opc int
		if role == phone.Callee {
			user = cfg.CalleeUser(i)
		} else {
			user = cfg.CallerUser(i)
			opc = cfg.OpsPerConn
		}
		p, err := phone.New(phoneCfg(user, opc), role)
		if err != nil {
			errs <- idxErr{i, err}
			return
		}
		if err := p.Register(); err != nil {
			p.Close()
			errs <- idxErr{i, err}
			return
		}
		if role == phone.Callee {
			callees[i] = p
		} else {
			callers[i] = p
		}
	}
	// Callees first, so every callee is "prepared to receive calls before
	// the callers initiated those calls".
	for i := 0; i < cfg.Pairs; i++ {
		wg.Add(1)
		go setup(i, phone.Callee)
	}
	wg.Wait()
	for i := 0; i < cfg.Pairs; i++ {
		wg.Add(1)
		go setup(i, phone.Caller)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		return Result{}, fmt.Errorf("loadgen: setup pair %d: %w", e.i, e.err)
	}

	// --- Phase 2: measured workload. ---
	start := time.Now()
	var callWG sync.WaitGroup
	var regOps, regFailed atomicCounter
	for i := 0; i < cfg.Pairs; i++ {
		callWG.Add(1)
		go func(i int) {
			defer callWG.Done()
			switch cfg.Scenario {
			case ScenarioRegistrations:
				for n := 0; n < cfg.CallsPerCaller; n++ {
					if err := callers[i].Register(); err != nil {
						regFailed.add(1)
						continue
					}
					regOps.add(1)
				}
			default:
				callee := cfg.CalleeUser(i)
				for n := 0; n < cfg.CallsPerCaller; n++ {
					// Failed calls are counted by the phone and do not abort
					// the run; the paper reports degraded throughput rather
					// than aborted experiments under overload.
					_ = callers[i].Call(callee)
				}
			}
		}(i)
	}
	callWG.Wait()
	duration := time.Since(start)

	res := Result{Duration: duration}
	var totalCallTime time.Duration
	for i := 0; i < cfg.Pairs; i++ {
		st := callers[i].Stats()
		res.Ops += st.Ops
		res.CallsCompleted += st.CallsCompleted
		res.CallsFailed += st.CallsFailed
		res.FailedTimeout += st.FailedTimeout
		res.FailedRejected += st.FailedRejected
		res.FailedStatus += st.FailedStatus
		res.FailedTransport += st.FailedTransport
		res.Retransmits += st.Retransmits
		res.Reconnects += st.Reconnects
		res.Rejected += st.Rejected
		res.BackoffTime += st.BackoffTime
		totalCallTime += st.TotalCallTime
		if st.MaxCallTime > res.MaxCallLatency {
			res.MaxCallLatency = st.MaxCallTime
		}
		res.LatencyDist.Merge(st.Latency)
	}
	if cfg.Scenario == ScenarioRegistrations {
		res.Ops = int(regOps.load())
		res.CallsFailed = int(regFailed.load())
	}
	if res.CallsCompleted > 0 {
		res.MeanCallLatency = totalCallTime / time.Duration(res.CallsCompleted)
	}
	res.P50CallLatency = res.LatencyDist.Quantile(0.50)
	res.P95CallLatency = res.LatencyDist.Quantile(0.95)
	res.P99CallLatency = res.LatencyDist.Quantile(0.99)
	if duration > 0 {
		res.Throughput = float64(res.Ops) / duration.Seconds()
	}
	return res, nil
}
