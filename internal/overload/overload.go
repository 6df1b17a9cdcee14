// Package overload implements SIP server overload control: a pluggable
// admission controller consulted at the front of every architecture's
// receive path, before any transaction or database work is done for a new
// request.
//
// The motivation comes from the overload-control literature the paper's
// architecture study stops short of: without explicit control a SIP
// server's goodput *collapses* past saturation rather than plateauing,
// because clients keep retransmitting requests the server has already paid
// to parse, authenticate, and store (Hong et al., "A Comparative Study of
// SIP Overload Control Algorithms"). Two local-control families from that
// comparison are provided alongside the no-control baseline:
//
//   - PolicyThreshold: reject new INVITEs while the in-flight transaction
//     count or the receiving worker's queue depth exceeds a budget. The
//     simplest load probe — cheap, stateless between decisions.
//   - PolicyOccupancy: track the workers' busy fraction over a measurement
//     window and adapt an admission fraction multiplicatively toward a
//     target occupancy (the CPU-occupancy algorithm in Hong et al.'s
//     comparison). Smoother than a hard threshold under bursty load.
//
// Rejected INVITEs are answered with 503 Service Unavailable plus a
// Retry-After delay (RFC 3261 §21.5.4), which costs one response
// serialization instead of the full proxy pipeline. Stream connections need
// no switch for connection-level backpressure (Shen & Schulzrinne, "On
// TCP-based SIP Server Overload Control"): a reader finishes one message
// before it reads the next, so a busy worker leaves bytes in the socket
// buffer and the kernel's flow control pushes back on the sender.
package overload

import (
	"math"
	"sync/atomic"
	"time"

	"gosip/internal/metrics"
)

// Policy names an admission-control algorithm.
type Policy string

// Available policies.
const (
	// PolicyNone admits everything — the goodput-collapse baseline.
	PolicyNone Policy = "none"
	// PolicyThreshold rejects while in-flight work or queue depth exceeds
	// a fixed budget.
	PolicyThreshold Policy = "threshold"
	// PolicyOccupancy adapts an admission fraction toward a target worker
	// busy-fraction.
	PolicyOccupancy Policy = "occupancy"
)

// Config tunes the controller.
type Config struct {
	// Policy selects the algorithm (default PolicyNone).
	Policy Policy
	// MaxPending is the threshold policy's in-flight transaction budget
	// (0 = 4× the worker count).
	MaxPending int
	// MaxQueue is the threshold policy's per-worker budget of other
	// messages waiting for the receiving worker or in process on it
	// (0 = 64).
	MaxQueue int
	// TargetOccupancy is the occupancy policy's busy-fraction setpoint
	// (0 = 0.85).
	TargetOccupancy float64
	// RetryAfter is the base delay advertised on 503 rejections
	// (0 = 1s). The advertised value grows with overload severity.
	RetryAfter time.Duration

	// window is the occupancy measurement period (0 = 100ms). Only this
	// package's tests set it, to shorten or stretch a run.
	window time.Duration
}

// minAdmit floors the occupancy policy's admission fraction so probing
// traffic always gets through and the controller can recover.
const minAdmit = 0.05

// WithDefaults fills zero fields given the server's worker count.
func (c Config) WithDefaults(workers int) Config {
	if c.Policy == "" {
		c.Policy = PolicyNone
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4 * workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.TargetOccupancy <= 0 {
		c.TargetOccupancy = 0.85
	}
	if c.window <= 0 {
		c.window = 100 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Controller is one server's admission controller. All methods are safe
// for concurrent use from every worker goroutine.
type Controller struct {
	cfg     Config
	workers int
	// pending probes the in-flight (non-completed) transaction count; the
	// threshold policy's load signal.
	pending func() int

	// Occupancy state: busy nanoseconds accumulated in the current window,
	// the window's start (unix nanos), and the admission fraction (float64
	// bits). The window is rolled on demand by whichever worker arrives
	// first past the boundary (CAS), so no background goroutine is needed.
	busyNS    atomic.Int64
	winStart  atomic.Int64
	admitBits atomic.Uint64
	rng       atomic.Uint64

	offered  *metrics.Counter
	admitted *metrics.Counter
	rejected *metrics.Counter
	raHist   *metrics.Histogram
}

// New builds a controller. pending supplies the in-flight transaction
// count (may be nil, read as zero); prof receives the offered/admitted/
// rejected counters and the retry-after histogram.
func New(cfg Config, workers int, pending func() int, prof *metrics.Profile) *Controller {
	if workers <= 0 {
		workers = 1
	}
	c := &Controller{
		cfg:      cfg.WithDefaults(workers),
		workers:  workers,
		pending:  pending,
		offered:  prof.Counter(metrics.MetricOverloadOffered),
		admitted: prof.Counter(metrics.MetricOverloadAdmitted),
		rejected: prof.Counter(metrics.MetricOverloadRejected),
		raHist:   prof.Histogram(metrics.StageRetryAfter),
	}
	c.winStart.Store(time.Now().UnixNano())
	c.admitBits.Store(math.Float64bits(1))
	c.rng.Store(0x9e3779b97f4a7c15)
	return c
}

// Config returns the effective (default-filled) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Active reports whether a real policy is enabled (anything but none).
func (c *Controller) Active() bool { return c.cfg.Policy != PolicyNone }

// NeedsObserve reports whether callers should time message handling and
// feed it to Observe — only the occupancy policy consumes it, so the other
// policies skip the two time.Now calls per message.
func (c *Controller) NeedsObserve() bool { return c.cfg.Policy == PolicyOccupancy }

// RetryAfter returns the configured base Retry-After delay.
func (c *Controller) RetryAfter() time.Duration { return c.cfg.RetryAfter }

// Decide evaluates the policy for one new request without recording the
// outcome; queued is the receiving worker's load (see Config.MaxQueue). Callers
// that may override a rejection (e.g. admitting a retransmission of an
// already-admitted transaction) record the final outcome via CountAdmit or
// CountReject.
func (c *Controller) Decide(queued int) (admit bool, retryAfter time.Duration) {
	switch c.cfg.Policy {
	case PolicyThreshold:
		p := 0
		if c.pending != nil {
			p = c.pending()
		}
		if p >= c.cfg.MaxPending || queued >= c.cfg.MaxQueue {
			// Advertise a longer back-off the further past the budget the
			// server is, so the histogram reflects overload severity.
			over := 1.0
			if c.cfg.MaxPending > 0 {
				over = float64(p) / float64(c.cfg.MaxPending)
			}
			return false, scaleRetryAfter(c.cfg.RetryAfter, over)
		}
		return true, 0
	case PolicyOccupancy:
		c.rollWindow(time.Now().UnixNano())
		f := math.Float64frombits(c.admitBits.Load())
		if c.rand01() <= f {
			return true, 0
		}
		// A small admission fraction means deep overload: back callers off
		// proportionally.
		return false, scaleRetryAfter(c.cfg.RetryAfter, 1/math.Max(f, minAdmit))
	default:
		return true, 0
	}
}

// Admit is Decide plus outcome recording, for callers with no override.
func (c *Controller) Admit(queued int) (bool, time.Duration) {
	ok, ra := c.Decide(queued)
	if ok {
		c.CountAdmit()
		return true, 0
	}
	c.CountReject(ra)
	return false, ra
}

// CountAdmit records one offered-and-admitted request.
func (c *Controller) CountAdmit() {
	c.offered.Inc()
	c.admitted.Inc()
}

// CountReject records one offered-and-rejected request and the Retry-After
// it was sent.
func (c *Controller) CountReject(retryAfter time.Duration) {
	c.offered.Inc()
	c.rejected.Inc()
	c.raHist.Record(retryAfter)
}

// Observe feeds the occupancy estimator one message's processing time.
// Cheap no-op for the other policies.
func (c *Controller) Observe(busy time.Duration) {
	if c.cfg.Policy != PolicyOccupancy {
		return
	}
	c.busyNS.Add(int64(busy))
}

// AdmitFraction returns the occupancy policy's current admission fraction
// (1 for the other policies). Exposed for tests and reports.
func (c *Controller) AdmitFraction() float64 {
	return math.Float64frombits(c.admitBits.Load())
}

// rollWindow closes the measurement window if it has elapsed and adapts
// the admission fraction multiplicatively toward the target occupancy:
// f' = clamp(f · target/occupancy). Exactly one caller wins the CAS per
// boundary; the rest use the fraction as-is.
func (c *Controller) rollWindow(now int64) {
	ws := c.winStart.Load()
	if now-ws < int64(c.cfg.window) {
		return
	}
	if !c.winStart.CompareAndSwap(ws, now) {
		return
	}
	busy := c.busyNS.Swap(0)
	elapsed := now - ws
	if elapsed <= 0 {
		return
	}
	occ := float64(busy) / (float64(elapsed) * float64(c.workers))
	f := math.Float64frombits(c.admitBits.Load())
	if occ <= 0 {
		f = 1
	} else {
		f *= c.cfg.TargetOccupancy / occ
	}
	f = math.Min(1, math.Max(minAdmit, f))
	c.admitBits.Store(math.Float64bits(f))
}

// rand01 is a lock-free xorshift64 in [0,1): good enough for probabilistic
// admission and free of the global rand lock on the per-message path.
func (c *Controller) rand01() float64 {
	for {
		old := c.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if c.rng.CompareAndSwap(old, x) {
			return float64(x>>11) / float64(1<<53)
		}
	}
}

// scaleRetryAfter grows the base delay with overload severity, capped at
// 4× so advertised delays stay bounded.
func scaleRetryAfter(base time.Duration, factor float64) time.Duration {
	if factor < 1 {
		factor = 1
	}
	if factor > 4 {
		factor = 4
	}
	return time.Duration(float64(base) * factor)
}

// RetryAfterSeconds renders a delay as the integer delta-seconds value the
// Retry-After header carries (RFC 3261 §20.33), rounding up so a sub-second
// configuration still tells clients to wait at least one second on the
// wire; clients with tighter schedules cap the honored delay themselves.
func RetryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
