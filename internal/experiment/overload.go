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
	"gosip/internal/overload"
	"gosip/internal/testutil"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// OverloadScale shapes the overload sweep: a server whose capacity is pinned
// by a serialized, slow user database, driven well past saturation.
//
// The sweep reproduces the central claim of the overload-control literature
// (Hong et al.): without admission control goodput *collapses* past the
// saturation point — clients time out, retransmit, and the server burns its
// capacity on work that will never complete — while a local admission policy
// holds goodput near capacity by rejecting the excess cheaply (503 +
// Retry-After) before the expensive authentication and transaction work.
type OverloadScale struct {
	// Pairs are the offered-load points. The last entry should sit near 3×
	// the saturation point implied by LookupLatency and DBPool.
	Pairs []int
	// CallsPerCaller is each caller's closed-loop call count.
	CallsPerCaller int
	// Workers is the server worker count.
	Workers int
	// LookupLatency and DBPool pin server capacity: with a pool of 1 every
	// authenticated transaction serializes on one LookupLatency-long query,
	// making saturation architecture-independent and host-independent.
	LookupLatency time.Duration
	DBPool        int
	// MaxPending is the threshold policy's transaction budget.
	MaxPending int
	// MaxQueue is the threshold policy's per-worker queue budget.
	MaxQueue int
	// ResponseTimeout and MaxRetries set client patience; impatient clients
	// are what turn saturation into collapse.
	ResponseTimeout time.Duration
	MaxRetries      int
	// RejectRetries and BackoffCap set how callers honor Retry-After.
	RejectRetries int
	BackoffCap    time.Duration
}

// DefaultOverloadScale saturates at roughly 6–8 concurrent pairs (a 5 ms
// serialized query per transaction ≈ 200 tx/s), so the top of the default
// sweep offers about 3× capacity.
func DefaultOverloadScale() OverloadScale {
	return OverloadScale{
		Pairs:          []int{4, 48},
		CallsPerCaller: 20,
		Workers:        4,
		LookupLatency:  5 * time.Millisecond,
		DBPool:         1,
		MaxPending:     8,
		MaxQueue:       16,
		// Client patience below the saturated queueing delay is what turns
		// saturation into collapse: timed-out requests are retransmitted
		// (UDP) or abandoned (TCP), but the server still pays the serialized
		// authentication query for each — work that yields no goodput.
		ResponseTimeout: 150 * time.Millisecond,
		MaxRetries:      2,
		RejectRetries:   6,
		BackoffCap:      100 * time.Millisecond,
	}
}

// OverloadCell is one (policy, transport, pairs) measurement.
type OverloadCell struct {
	Policy    overload.Policy
	Transport transport.Kind
	Pairs     int
	Result    loadgen.Result
	// Server-side admission counters.
	Offered  int64
	Admitted int64
	Rejected int64
	// Bugfix-sweep health: IPC deadline hits, the fd-handle ledger, and the
	// goroutine delta across the server's lifetime (all should read as
	// "nothing leaked").
	IPCTimeouts    int64
	HandlesLeaked  int64
	GoroutineDelta int
}

// Goodput is completed-transaction throughput — loadgen already excludes
// rejected and failed calls from Ops.
func (c OverloadCell) Goodput() float64 { return c.Result.Throughput }

// OverloadReport is the finished sweep.
type OverloadReport struct {
	Scale OverloadScale
	Cells []OverloadCell
}

// Cell returns the measurement for (policy, transport, pairs), or nil.
func (r *OverloadReport) Cell(p overload.Policy, tr transport.Kind, pairs int) *OverloadCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Policy == p && c.Transport == tr && c.Pairs == pairs {
			return c
		}
	}
	return nil
}

// ControlGain returns the best controlled-goodput : no-control-goodput ratio
// at the highest offered load, and the transport it was achieved on.
func (r *OverloadReport) ControlGain() (gain float64, tr transport.Kind) {
	if len(r.Scale.Pairs) == 0 {
		return 0, ""
	}
	top := r.Scale.Pairs[len(r.Scale.Pairs)-1]
	for _, kind := range []transport.Kind{transport.UDP, transport.TCP} {
		base := r.Cell(overload.PolicyNone, kind, top)
		if base == nil || base.Goodput() <= 0 {
			continue
		}
		for _, p := range []overload.Policy{overload.PolicyThreshold, overload.PolicyOccupancy} {
			if c := r.Cell(p, kind, top); c != nil {
				if g := c.Goodput() / base.Goodput(); g > gain {
					gain, tr = g, kind
				}
			}
		}
	}
	return gain, tr
}

// overloadPolicies are the sweep's rows.
var overloadPolicies = []overload.Policy{
	overload.PolicyNone, overload.PolicyThreshold, overload.PolicyOccupancy,
}

// RunOverload sweeps policy × transport × offered load, each cell on a fresh
// server, and verifies per cell that nothing leaked.
func RunOverload(sc OverloadScale, progress func(string)) (*OverloadReport, error) {
	rep := &OverloadReport{Scale: sc}
	for _, kind := range []transport.Kind{transport.UDP, transport.TCP} {
		for _, policy := range overloadPolicies {
			for _, pairs := range sc.Pairs {
				cell, err := runOverloadCell(sc, policy, kind, pairs)
				if err != nil {
					return nil, fmt.Errorf("overload (%s/%s, %d pairs): %w", policy, kind, pairs, err)
				}
				rep.Cells = append(rep.Cells, *cell)
				if progress != nil {
					progress(fmt.Sprintf("[overload] %-9s %-3s %3d pairs: %s (%d shed, leak fd=%d goro=%d)",
						policy, kind, pairs, cell.Result,
						cell.Rejected, cell.HandlesLeaked, cell.GoroutineDelta))
				}
			}
		}
	}
	return rep, nil
}

func runOverloadCell(sc OverloadScale, policy overload.Policy, kind transport.Kind, pairs int) (*OverloadCell, error) {
	arch := core.ArchUDP
	if kind == transport.TCP {
		arch = core.ArchTCP
	}
	goroBefore := runtime.NumGoroutine()
	cfg := core.Config{
		Arch:     arch,
		Workers:  sc.Workers,
		Stateful: true,
		Auth:     true, // every transaction pays the serialized DB query
		Domain:   "bench.gosip",
		ConnMgr:  connmgr.KindScan,
		DB:       userdb.Config{LookupLatency: sc.LookupLatency, PoolSize: sc.DBPool},
		Overload: overload.Config{
			Policy:     policy,
			MaxPending: sc.MaxPending,
			MaxQueue:   sc.MaxQueue,
		},
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
	srv.DB().ProvisionN(2*pairs, cfg.Domain)

	res, err := loadgen.Run(loadgen.Config{
		Transport:       kind,
		ProxyAddr:       srv.Addr(),
		Domain:          cfg.Domain,
		Pairs:           pairs,
		CallsPerCaller:  sc.CallsPerCaller,
		ResponseTimeout: sc.ResponseTimeout,
		MaxRetries:      sc.MaxRetries,
		RejectRetries:   sc.RejectRetries,
		BackoffCap:      sc.BackoffCap,
		// Setup registers against the same capacity-pinned DB; trickle it so
		// the unmeasured phase doesn't overload the server before the
		// measured one does.
		RegisterConcurrency: 4,
	})
	if err != nil {
		return nil, err
	}

	cell := &OverloadCell{
		Policy:    policy,
		Transport: kind,
		Pairs:     pairs,
		Result:    res,
		Offered:   srv.Profile().Counter(metrics.MetricOverloadOffered).Value(),
		Admitted:  srv.Profile().Counter(metrics.MetricOverloadAdmitted).Value(),
		Rejected:  srv.Profile().Counter(metrics.MetricOverloadRejected).Value(),
	}

	// Close, then audit: the fd-handle ledger must balance and the server's
	// goroutines must be gone. A positive delta here is a leak report.
	if err := srv.Close(); err != nil {
		return nil, err
	}
	closed = true
	cell.IPCTimeouts = srv.Profile().Counter(metrics.MetricIPCTimeouts).Value()
	issued, hClosed := testutil.HandleLedger(srv.Profile())
	cell.HandlesLeaked = issued - hClosed
	cell.GoroutineDelta = testutil.SettleGoroutines(goroBefore)
	return cell, nil
}

// Table renders goodput versus offered load per transport, policies as rows.
func (r *OverloadReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload sweep: goodput (completed ops/s) vs offered load\n")
	for _, kind := range []transport.Kind{transport.UDP, transport.TCP} {
		fmt.Fprintf(&b, "\n%s:\n%-12s", kind, "policy")
		for _, p := range r.Scale.Pairs {
			fmt.Fprintf(&b, "%22s", fmt.Sprintf("%d pairs", p))
		}
		b.WriteByte('\n')
		for _, policy := range overloadPolicies {
			fmt.Fprintf(&b, "%-12s", policy)
			for _, p := range r.Scale.Pairs {
				c := r.Cell(policy, kind, p)
				if c == nil {
					fmt.Fprintf(&b, "%22s", "-")
					continue
				}
				fmt.Fprintf(&b, "%22s", fmt.Sprintf("%.0f ops/s (%d shed)", c.Goodput(), c.Rejected))
			}
			b.WriteByte('\n')
		}
	}
	if gain, kind := r.ControlGain(); gain > 0 {
		fmt.Fprintf(&b, "\nbest control gain at %d pairs: %.1fx no-control goodput (%s)\n",
			r.Scale.Pairs[len(r.Scale.Pairs)-1], gain, kind)
	}
	return b.String()
}

// Markdown renders the sweep as GitHub tables for EXPERIMENTS.md.
func (r *OverloadReport) Markdown() string {
	var b strings.Builder
	for _, kind := range []transport.Kind{transport.UDP, transport.TCP} {
		fmt.Fprintf(&b, "\n**%s**\n\n| policy |", kind)
		for _, p := range r.Scale.Pairs {
			fmt.Fprintf(&b, " %d pairs |", p)
		}
		b.WriteString(" shed @ max |\n|---|")
		for range r.Scale.Pairs {
			b.WriteString("---|")
		}
		b.WriteString("---|\n")
		top := r.Scale.Pairs[len(r.Scale.Pairs)-1]
		for _, policy := range overloadPolicies {
			fmt.Fprintf(&b, "| %s |", policy)
			for _, p := range r.Scale.Pairs {
				if c := r.Cell(policy, kind, p); c != nil {
					fmt.Fprintf(&b, " %.0f |", c.Goodput())
				} else {
					b.WriteString(" - |")
				}
			}
			if c := r.Cell(policy, kind, top); c != nil {
				fmt.Fprintf(&b, " %d |\n", c.Rejected)
			} else {
				b.WriteString(" - |\n")
			}
		}
	}
	return b.String()
}
