package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/testutil"
	"gosip/internal/trace"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// OutlierScale shapes the tail-explanation experiment: a server whose
// capacity is pinned by a serialized, slow user database (as in the
// overload sweep, but driven by patient clients so every call completes),
// run with the flight recorder armed. Queueing on the single DB connection
// makes some calls take many times the median — exactly the outliers an
// aggregate percentile cannot explain — and the retained traces say where
// each slow call spent its time.
type OutlierScale struct {
	// Pairs is the concurrent caller count; with a serialized database it
	// directly sets the queueing depth that manufactures outliers.
	Pairs int
	// CallsPerCaller is each caller's closed-loop call count.
	CallsPerCaller int
	// Workers is the server worker count.
	Workers int
	// LookupLatency and DBPool pin server capacity (see OverloadScale).
	LookupLatency time.Duration
	DBPool        int
	// SlowThreshold is the recorder's tail-sampling bound: transactions at
	// or above it are retained with their full timeline.
	SlowThreshold time.Duration
	// Sample is the additional head-sampling rate, so the recorder also
	// holds a few unremarkable calls to compare the outliers against.
	Sample float64
	// Ring is the flight-recorder capacity per cell.
	Ring int
	// ResponseTimeout and MaxRetries set client patience. Patient clients
	// (unlike the overload sweep's impatient ones) let slow calls finish,
	// so the tail is observed rather than truncated into failures.
	ResponseTimeout time.Duration
	MaxRetries      int
}

// DefaultOutlierScale queues ~8 callers on one 5 ms serialized query per
// authenticated transaction, pushing the slowest transactions well past the
// 25 ms retain threshold while the median stays near the service time.
func DefaultOutlierScale() OutlierScale {
	return OutlierScale{
		Pairs:           8,
		CallsPerCaller:  15,
		Workers:         4,
		LookupLatency:   5 * time.Millisecond,
		DBPool:          1,
		SlowThreshold:   25 * time.Millisecond,
		Sample:          0.05,
		Ring:            512,
		ResponseTimeout: 2 * time.Second,
		MaxRetries:      3,
	}
}

// OutlierCell is one (transport, architecture) measurement with its
// exemplar slow-call trace.
type OutlierCell struct {
	Transport transport.Kind
	Arch      core.Architecture
	Result    loadgen.Result
	// Flight-recorder ledger for the run.
	Retained   int64
	Dropped    int64
	Truncated  int64
	SampledOut int64
	// SlowRetained counts retained traces whose reason is "slow".
	SlowRetained int
	// Exemplar is the slowest retained slow-call trace whose span timeline
	// accounts for its end-to-end latency (see Consistent); nil only if the
	// run produced no retained traces at all.
	Exemplar *trace.Trace
	// Leak audit, as in the overload sweep.
	HandlesLeaked  int64
	GoroutineDelta int
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

// OutlierReport is the finished experiment.
type OutlierReport struct {
	Scale OutlierScale
	Cells []OutlierCell
}

// outlierCells are the (transport, architecture) combinations measured:
// both transports, and for TCP both process models.
var outlierCells = []struct {
	kind transport.Kind
	arch core.Architecture
}{
	{transport.UDP, core.ArchUDP},
	{transport.TCP, core.ArchTCP},
	{transport.TCP, core.ArchThreaded},
}

// RunOutliers runs each (transport, architecture) cell on a fresh server
// with the flight recorder armed and picks an exemplar slow call per cell.
func RunOutliers(sc OutlierScale, progress func(string)) (*OutlierReport, error) {
	rep := &OutlierReport{Scale: sc}
	for _, c := range outlierCells {
		cell, err := runOutlierCell(sc, c.kind, c.arch)
		if err != nil {
			return nil, fmt.Errorf("outliers (%s/%s): %w", c.kind, c.arch, err)
		}
		rep.Cells = append(rep.Cells, *cell)
		if progress != nil {
			ex := "no exemplar"
			if cell.Exemplar != nil {
				ex = fmt.Sprintf("exemplar %s e2e=%v accounted=%v",
					cell.Exemplar.Reason(),
					cell.Exemplar.E2E.Round(time.Microsecond),
					cell.Exemplar.Coverage().Round(time.Microsecond))
			}
			progress(fmt.Sprintf("[outliers] %-3s %-8s: %s | retained=%d (%d slow) dropped=%d | %s",
				c.kind, c.arch, cell.Result, cell.Retained, cell.SlowRetained, cell.Dropped, ex))
		}
	}
	return rep, nil
}

func runOutlierCell(sc OutlierScale, kind transport.Kind, arch core.Architecture) (*OutlierCell, error) {
	goroBefore := runtime.NumGoroutine()
	cfg := core.Config{
		Arch:     arch,
		Workers:  sc.Workers,
		Stateful: true,
		Auth:     true, // every transaction pays the serialized DB query
		Domain:   "bench.gosip",
		ConnMgr:  connmgr.KindScan,
		DB:       userdb.Config{LookupLatency: sc.LookupLatency, PoolSize: sc.DBPool},
		Trace:    trace.Config{Sample: sc.Sample, Slow: sc.SlowThreshold, Ring: sc.Ring},
	}
	srv, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()
	srv.DB().ProvisionN(2*sc.Pairs, cfg.Domain)

	res, err := loadgen.Run(loadgen.Config{
		Transport:       kind,
		ProxyAddr:       srv.Addr(),
		Domain:          cfg.Domain,
		Pairs:           sc.Pairs,
		CallsPerCaller:  sc.CallsPerCaller,
		ResponseTimeout: sc.ResponseTimeout,
		MaxRetries:      sc.MaxRetries,
		// Setup registers against the capacity-pinned DB; trickle it.
		RegisterConcurrency: 4,
	})
	if err != nil {
		return nil, err
	}

	cell := &OutlierCell{
		Transport:  kind,
		Arch:       arch,
		Result:     res,
		Retained:   srv.Profile().Counter(metrics.MetricTraceRetained).Value(),
		Dropped:    srv.Profile().Counter(metrics.MetricTraceDropped).Value(),
		Truncated:  srv.Profile().Counter(metrics.MetricTraceTruncated).Value(),
		SampledOut: srv.Profile().Counter(metrics.MetricTraceSampledOut).Value(),
	}
	cell.Exemplar, cell.SlowRetained = pickExemplar(srv.Tracer().Snapshot())

	if err := srv.Close(); err != nil {
		return nil, err
	}
	closed = true
	issued, hClosed := testutil.HandleLedger(srv.Profile())
	cell.HandlesLeaked = issued - hClosed
	cell.GoroutineDelta = testutil.SettleGoroutines(goroBefore)
	return cell, nil
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
func breakdown(t *trace.Trace, indent string) string {
	var b strings.Builder
	for _, sp := range t.Spans {
		fmt.Fprintf(&b, "%s%-12s +%-10v %v\n", indent,
			sp.Stage, sp.Start.Round(time.Microsecond), sp.Dur.Round(time.Microsecond))
	}
	cov := t.Coverage()
	fmt.Fprintf(&b, "%s%-12s e2e=%v accounted=%v (%.0f%%)\n", indent, "total",
		t.E2E.Round(time.Microsecond), cov.Round(time.Microsecond),
		100*float64(cov)/float64(t.E2E))
	return b.String()
}

// Table renders the per-cell summaries and exemplar breakdowns.
func (r *OutlierReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Explaining the tail: exemplar slow calls (slow >= %v, sample %g)\n",
		r.Scale.SlowThreshold, r.Scale.Sample)
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(&b, "\n%s / %s: %s\n", c.Transport, c.Arch, c.Result)
		fmt.Fprintf(&b, "  recorder: retained=%d (%d slow) dropped=%d truncated=%d sampled_out=%d\n",
			c.Retained, c.SlowRetained, c.Dropped, c.Truncated, c.SampledOut)
		if c.Exemplar == nil {
			b.WriteString("  no retained traces\n")
			continue
		}
		fmt.Fprintf(&b, "  exemplar (%s, %s, status %d):\n",
			c.Exemplar.Reason(), c.Exemplar.Method, c.Exemplar.Status)
		b.WriteString(breakdown(c.Exemplar, "    "))
	}
	return b.String()
}

// Markdown renders the experiment for EXPERIMENTS.md: a summary table and
// the slowest exemplar's stage breakdown.
func (r *OutlierReport) Markdown() string {
	var b strings.Builder
	b.WriteString("\n| transport | arch | p50 | p99 | max | retained (slow) | exemplar e2e | accounted |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	var worst *trace.Trace
	var worstCell *OutlierCell
	for i := range r.Cells {
		c := &r.Cells[i]
		ex, acc := "-", "-"
		if c.Exemplar != nil {
			ex = c.Exemplar.E2E.Round(time.Microsecond).String()
			acc = fmt.Sprintf("%.0f%%", 100*float64(c.Exemplar.Coverage())/float64(c.Exemplar.E2E))
			if worst == nil || c.Exemplar.E2E > worst.E2E {
				worst, worstCell = c.Exemplar, c
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %v | %v | %v | %d (%d) | %s | %s |\n",
			c.Transport, c.Arch,
			c.Result.P50CallLatency.Round(time.Microsecond),
			c.Result.P99CallLatency.Round(time.Microsecond),
			c.Result.MaxCallLatency.Round(time.Microsecond),
			c.Retained, c.SlowRetained, ex, acc)
	}
	if worst != nil {
		fmt.Fprintf(&b, "\nSlowest exemplar (%s/%s, %s, %s):\n\n| stage | start | duration |\n|---|---|---|\n",
			worstCell.Transport, worstCell.Arch, worst.Method, worst.Reason())
		for _, sp := range worst.Spans {
			fmt.Fprintf(&b, "| %s | +%v | %v |\n",
				sp.Stage, sp.Start.Round(time.Microsecond), sp.Dur.Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "\ne2e %v, spans account for %v.\n",
			worst.E2E.Round(time.Microsecond), worst.Coverage().Round(time.Microsecond))
	}
	return b.String()
}
