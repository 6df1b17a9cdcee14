package experiment

import (
	"fmt"
	"strings"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/trace"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// Gauges the outliers sweep's Start hook adds to each cell's server
// profile: retained traces whose reason is "slow", and the chosen
// exemplar's end-to-end latency and the part its spans account for.
const (
	gaugeSlowRetained      = "exemplar.slow_retained"
	gaugeExemplarE2E       = "exemplar.e2e_ns"
	gaugeExemplarAccounted = "exemplar.accounted_ns"
)

// outliers explains the tail: a server whose capacity is pinned by a
// serialized 5 ms user-database query (as in the overload sweep, but with
// patient clients so every call completes), run with the flight recorder
// armed. Queueing on the one DB connection makes some calls take many times
// the median — outliers an aggregate percentile cannot explain — and the
// retained traces say where each slow call spent its time.
var outliers = &Sweep{
	Name:  "outliers",
	Title: "Explaining the tail: exemplar slow calls (slow >= 25ms, sample 0.05)",
	Loads: []int{8}, Calls: 15, Workers: 4,
	Server: func(c *core.Config) {
		c.Auth = true // every transaction pays the serialized DB query
		c.ConnMgr = connmgr.KindScan
		c.DB = userdb.Config{LookupLatency: 5 * time.Millisecond, PoolSize: 1}
		// Tail-sample everything past 25 ms and head-sample a few
		// unremarkable calls to compare the outliers against.
		c.Trace = trace.Config{Sample: 0.05, Slow: 25 * time.Millisecond, Ring: 512}
	},
	Load: func(lc *loadgen.Config) {
		lc.ResponseTimeout, lc.MaxRetries = 2*time.Second, 3
		lc.RegisterConcurrency = 4 // setup registers against the pinned DB
	},
	Rows: []Row{
		{Name: "udp", Transport: transport.UDP},
		{Name: "tcp", Transport: transport.TCP},
		{Name: "threaded", Transport: transport.TCP, Server: func(c *core.Config) { c.Arch = core.ArchThreaded }},
	},
	Start: exemplar,
	Cols: []Column{
		{"p50", func(c, _ *Cell) string { return c.Result.P50CallLatency.Round(time.Microsecond).String() }},
		{"p99", func(c, _ *Cell) string { return c.Result.P99CallLatency.Round(time.Microsecond).String() }},
		{"max", func(c, _ *Cell) string { return c.Result.MaxCallLatency.Round(time.Microsecond).String() }},
		{"retained (slow)", func(c, _ *Cell) string {
			return fmt.Sprintf("%d (%.0f)", c.Snapshot.Counters[metrics.MetricTraceRetained], c.Snapshot.Gauges[gaugeSlowRetained])
		}},
		counter("dropped", metrics.MetricTraceDropped),
		counter("truncated", metrics.MetricTraceTruncated),
		counter("sampled out", metrics.MetricTraceSampledOut),
		{"exemplar e2e", func(c, _ *Cell) string {
			if e2e := c.Snapshot.Gauges[gaugeExemplarE2E]; e2e > 0 {
				return time.Duration(e2e).Round(time.Microsecond).String()
			}
			return "-"
		}},
		{"accounted", func(c, _ *Cell) string {
			e2e := c.Snapshot.Gauges[gaugeExemplarE2E]
			if e2e <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", 100*c.Snapshot.Gauges[gaugeExemplarAccounted]/e2e)
		}},
	},
}

// exemplar picks, once the load is done, the cell's exemplar slow call and
// renders its span timeline.
func exemplar(_ Env, srv core.Server) (func() string, error) {
	return func() string {
		ex, slow := pickExemplar(srv.Tracer().Snapshot())
		prof := srv.Profile()
		prof.SetGauge(gaugeSlowRetained, func() float64 { return float64(slow) })
		if ex == nil {
			return "no retained traces\n"
		}
		e2e, cov := float64(ex.E2E), float64(ex.Coverage())
		prof.SetGauge(gaugeExemplarE2E, func() float64 { return e2e })
		prof.SetGauge(gaugeExemplarAccounted, func() float64 { return cov })
		return fmt.Sprintf("exemplar (%s, %s, status %d):\n", ex.Reason(), ex.Method, ex.Status) + breakdown(ex)
	}, nil
}

// Consistent reports whether t's span timeline explains its end-to-end
// latency: the interval union of its spans is within 10% of E2E. Union,
// not sum — detail spans (fd IPC, cache hits) nest inside the send span.
func Consistent(t *trace.Trace) bool {
	if t == nil || t.E2E <= 0 {
		return false
	}
	d := t.Coverage() - t.E2E
	if d < 0 {
		d = -d
	}
	return d <= t.E2E/10
}

// pickExemplar returns the slowest retained slow-call trace whose timeline
// is Consistent, and the count of slow-retained traces. If no slow trace is
// consistent it falls back to the slowest slow trace, then to the slowest
// trace of any reason — the report still shows *something*, flagged by its
// accounted fraction.
func pickExemplar(traces []*trace.Trace) (*trace.Trace, int) {
	var best, bestSlow, bestAny *trace.Trace
	slow := 0
	for _, t := range traces {
		if bestAny == nil || t.E2E > bestAny.E2E {
			bestAny = t
		}
		if t.Reason() != "slow" {
			continue
		}
		slow++
		if bestSlow == nil || t.E2E > bestSlow.E2E {
			bestSlow = t
		}
		if Consistent(t) && (best == nil || t.E2E > best.E2E) {
			best = t
		}
	}
	if best == nil {
		best = bestSlow
	}
	if best == nil {
		best = bestAny
	}
	return best, slow
}

// breakdown renders one trace's span timeline as indented lines.
func breakdown(t *trace.Trace) string {
	var b strings.Builder
	for _, sp := range t.Spans {
		fmt.Fprintf(&b, "  %-12s +%-10v %v\n", sp.Stage, sp.Start.Round(time.Microsecond), sp.Dur.Round(time.Microsecond))
	}
	cov := t.Coverage()
	fmt.Fprintf(&b, "  %-12s e2e=%v accounted=%v (%.0f%%)\n", "total",
		t.E2E.Round(time.Microsecond), cov.Round(time.Microsecond), 100*float64(cov)/float64(t.E2E))
	return b.String()
}
