package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/transport"
)

// BatchingScale shapes the batched-I/O sweep: the same closed-loop call
// workload as the figures, run against servers that differ only in how
// datagrams and stream writes cross the kernel boundary. The comparison of
// interest is ops/s and syscalls per completed operation, variant by
// variant against the paper-faithful baseline.
type BatchingScale struct {
	// Pairs are the offered-load points (caller/callee pairs). The batching
	// win grows with concurrency — batches only fill when arrivals queue —
	// so the last entry should be comfortably past one pair per worker.
	Pairs []int
	// CallsPerCaller is each caller's closed-loop call count.
	CallsPerCaller int
	// Workers is the server worker count.
	Workers int
	// Batches are the UDP recvmmsg/sendmmsg budgets to sweep.
	Batches []int
	// Reps runs each cell this many times and keeps the median-throughput
	// run. Single-digit-second cells on a shared host are dominated by
	// scheduling noise; the median is stable where a single run is not.
	Reps int
	// RcvBuf, when >0, requests the same SO_RCVBUF for every variant's
	// sockets. The interesting batching regime on a loopback host is burst
	// absorption: with a bounded receive buffer, a reader that drains one
	// datagram per wakeup falls behind fan-in bursts and sheds load as
	// kernel drops (each one stalling a closed-loop caller for a full
	// retransmission timeout), while recvmmsg empties the same buffer a
	// batch per wakeup. An unconstrained buffer just hides the backlog.
	RcvBuf int
}

// DefaultBatchingScale keeps the sweep minutes-scale while still showing
// the syscall amortization.
func DefaultBatchingScale() BatchingScale {
	return BatchingScale{
		Pairs:          []int{8, 128},
		CallsPerCaller: 50,
		Workers:        4,
		Batches:        []int{8, 32},
		Reps:           5,
		RcvBuf:         32 << 10,
	}
}

// BatchingVariant is one server configuration under test.
type BatchingVariant struct {
	Name      string
	Arch      core.Architecture
	Transport transport.Kind
	UDPBatch  int
	Coalesce  bool
}

// variants builds the sweep rows: the UDP baseline against each batch
// size (every UDP row runs one socket per worker), then TCP and threaded,
// each baseline against write coalescing.
func (sc BatchingScale) variants() []BatchingVariant {
	vs := []BatchingVariant{
		{Name: "udp/base", Arch: core.ArchUDP, Transport: transport.UDP},
	}
	for _, b := range sc.Batches {
		vs = append(vs, BatchingVariant{
			Name: fmt.Sprintf("udp/batch%d", b), Arch: core.ArchUDP,
			Transport: transport.UDP, UDPBatch: b,
		})
	}
	vs = append(vs,
		BatchingVariant{Name: "tcp/base", Arch: core.ArchTCP, Transport: transport.TCP},
		BatchingVariant{Name: "tcp/coalesce", Arch: core.ArchTCP, Transport: transport.TCP, Coalesce: true},
		BatchingVariant{Name: "threaded/base", Arch: core.ArchThreaded, Transport: transport.TCP},
		BatchingVariant{Name: "threaded/coalesce", Arch: core.ArchThreaded, Transport: transport.TCP, Coalesce: true},
	)
	return vs
}

// BatchingCell is one (variant, pairs) measurement with the server-side
// syscall accounting harvested after the run.
type BatchingCell struct {
	Variant BatchingVariant
	Pairs   int
	Result  loadgen.Result

	RecvSyscalls, RecvMsgs int64
	SendSyscalls, SendMsgs int64
	WriteCalls, WriteMsgs  int64
	PoolDropped            int64
}

// netSyscalls is the cell's total network-crossing count: datagram
// receive and send calls plus stream write calls.
func (c BatchingCell) netSyscalls() int64 {
	return c.RecvSyscalls + c.SendSyscalls + c.WriteCalls
}

// netMsgs is the number of SIP messages those syscalls moved.
func (c BatchingCell) netMsgs() int64 {
	return c.RecvMsgs + c.SendMsgs + c.WriteMsgs
}

// SyscallsPerOp is the cell's network syscall cost per completed
// transaction — the quantity batching amortizes.
func (c BatchingCell) SyscallsPerOp() float64 {
	if c.Result.Ops == 0 {
		return 0
	}
	return float64(c.netSyscalls()) / float64(c.Result.Ops)
}

// MsgsPerSyscall is the realized amortization factor (1.0 = unbatched).
func (c BatchingCell) MsgsPerSyscall() float64 {
	if n := c.netSyscalls(); n > 0 {
		return float64(c.netMsgs()) / float64(n)
	}
	return 0
}

// BatchingReport is the finished sweep.
type BatchingReport struct {
	Scale BatchingScale
	Cells []BatchingCell
}

// Cell returns the measurement for (variant name, pairs), or nil.
func (r *BatchingReport) Cell(name string, pairs int) *BatchingCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Variant.Name == name && c.Pairs == pairs {
			return c
		}
	}
	return nil
}

// Gain compares the largest-batch UDP variant against the UDP baseline at
// the highest pair count: the ops/s ratio and the factor by which syscalls
// per operation fell.
func (r *BatchingReport) Gain() (opsRatio, syscallFactor float64) {
	if len(r.Scale.Pairs) == 0 {
		return 0, 0
	}
	top := r.Scale.Pairs[len(r.Scale.Pairs)-1]
	base := r.Cell("udp/base", top)
	if base == nil {
		return 0, 0
	}
	if len(r.Scale.Batches) == 0 {
		return 0, 0
	}
	best := r.Cell(fmt.Sprintf("udp/batch%d", r.Scale.Batches[len(r.Scale.Batches)-1]), top)
	if best == nil {
		return 0, 0
	}
	if base.Result.Throughput > 0 {
		opsRatio = best.Result.Throughput / base.Result.Throughput
	}
	if s := best.SyscallsPerOp(); s > 0 {
		syscallFactor = base.SyscallsPerOp() / s
	}
	return opsRatio, syscallFactor
}

// RunBatching sweeps variant × offered load. Each cell runs on a fresh
// server Reps times and the median-throughput run is kept. Repetitions are
// interleaved across cells — rep 1 of every cell, then rep 2, and so on —
// so a slow stretch on a shared host lands on all variants instead of
// biasing whichever cell happened to be running.
func RunBatching(sc BatchingScale, progress func(string)) (*BatchingReport, error) {
	rep := &BatchingReport{Scale: sc}
	reps := sc.Reps
	if reps < 1 {
		reps = 1
	}
	type key struct {
		name  string
		pairs int
	}
	runs := map[key][]*BatchingCell{}
	for i := 0; i < reps; i++ {
		for _, v := range sc.variants() {
			for _, pairs := range sc.Pairs {
				runtime.GC() // level the allocator debt left by the previous cell
				cell, err := runBatchingCell(sc, v, pairs)
				if err != nil {
					return nil, fmt.Errorf("batching (%s, %d pairs): %w", v.Name, pairs, err)
				}
				k := key{v.Name, pairs}
				runs[k] = append(runs[k], cell)
			}
		}
	}
	for _, v := range sc.variants() {
		for _, pairs := range sc.Pairs {
			cells := runs[key{v.Name, pairs}]
			sort.Slice(cells, func(i, j int) bool {
				return cells[i].Result.Throughput < cells[j].Result.Throughput
			})
			cell := cells[len(cells)/2]
			rep.Cells = append(rep.Cells, *cell)
			if progress != nil {
				progress(fmt.Sprintf("[batching] %-18s %3d pairs: %s (%.2f syscalls/op, %.1f msgs/syscall)",
					v.Name, pairs, cell.Result, cell.SyscallsPerOp(), cell.MsgsPerSyscall()))
			}
		}
	}
	return rep, nil
}

func runBatchingCell(sc BatchingScale, v BatchingVariant, pairs int) (*BatchingCell, error) {
	cfg := core.Config{
		Arch:    v.Arch,
		Workers: sc.Workers,
		// UDP rows run the §2 stateless proxy: per-message proxy work is
		// minimal there, so the sweep isolates the kernel-crossing cost the
		// batching knobs change. Stream rows must stay stateful — the
		// stateless response relay dials the Via sent-by, and a phone's
		// ephemeral TCP source port is not listening.
		Stateful: v.Transport != transport.UDP,
		Domain:   "bench.gosip",
		// The TCP rows run with both paper fixes on, so coalescing is
		// measured on top of the tuned server rather than hidden under the
		// fd-cache pathology.
		FDCache:     true,
		ConnMgr:     connmgr.KindPQueue,
		UDPBatch:    v.UDPBatch,
		TCPCoalesce: v.Coalesce,
		SoRcvBuf:    sc.RcvBuf,
	}
	srv, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	srv.DB().ProvisionN(2*pairs, cfg.Domain)

	res, err := loadgen.Run(loadgen.Config{
		Transport:      v.Transport,
		ProxyAddr:      srv.Addr(),
		Domain:         cfg.Domain,
		Pairs:          pairs,
		CallsPerCaller: sc.CallsPerCaller,
	})
	if err != nil {
		return nil, err
	}

	p := srv.Profile()
	cell := &BatchingCell{
		Variant:      v,
		Pairs:        pairs,
		Result:       res,
		RecvSyscalls: p.Counter(metrics.MetricUDPRecvSyscalls).Value(),
		RecvMsgs:     p.Counter(metrics.MetricUDPRecvMsgs).Value(),
		SendSyscalls: p.Counter(metrics.MetricUDPSendSyscalls).Value(),
		SendMsgs:     p.Counter(metrics.MetricUDPSendMsgs).Value(),
		WriteCalls:   p.Counter(metrics.MetricTCPWriteCalls).Value(),
		WriteMsgs:    p.Counter(metrics.MetricTCPWriteMsgs).Value(),
		PoolDropped:  p.Counter(metrics.MetricUDPPoolDropped).Value(),
	}
	if cell.PoolDropped != 0 {
		return nil, fmt.Errorf("buffer pool dropped %d buffers (recycling broke)", cell.PoolDropped)
	}
	return cell, nil
}

// Table renders throughput and syscall cost per variant and load point.
func (r *BatchingReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Batched I/O sweep: ops/s and syscalls per completed operation\n\n")
	fmt.Fprintf(&b, "%-20s", "variant")
	for _, p := range r.Scale.Pairs {
		fmt.Fprintf(&b, "%28s", fmt.Sprintf("%d pairs", p))
	}
	b.WriteByte('\n')
	for _, v := range r.Scale.variants() {
		fmt.Fprintf(&b, "%-20s", v.Name)
		for _, p := range r.Scale.Pairs {
			c := r.Cell(v.Name, p)
			if c == nil {
				fmt.Fprintf(&b, "%28s", "-")
				continue
			}
			fmt.Fprintf(&b, "%28s", fmt.Sprintf("%.0f ops/s, %.2f sys/op",
				c.Result.Throughput, c.SyscallsPerOp()))
		}
		b.WriteByte('\n')
	}
	if ops, sys := r.Gain(); ops > 0 {
		fmt.Fprintf(&b, "\nbatch%d vs baseline at %d pairs: %.2fx ops/s, syscalls/op ÷%.1f\n",
			r.Scale.Batches[len(r.Scale.Batches)-1], r.Scale.Pairs[len(r.Scale.Pairs)-1], ops, sys)
	}
	return b.String()
}

// Markdown renders the sweep as a GitHub table for EXPERIMENTS.md.
func (r *BatchingReport) Markdown() string {
	var b strings.Builder
	b.WriteString("\n| variant |")
	for _, p := range r.Scale.Pairs {
		fmt.Fprintf(&b, " %d pairs (ops/s) |", p)
	}
	top := r.Scale.Pairs[len(r.Scale.Pairs)-1]
	fmt.Fprintf(&b, " syscalls/op @ %d | msgs/syscall @ %d |\n|---|", top, top)
	for range r.Scale.Pairs {
		b.WriteString("---|")
	}
	b.WriteString("---|---|\n")
	for _, v := range r.Scale.variants() {
		fmt.Fprintf(&b, "| %s |", v.Name)
		for _, p := range r.Scale.Pairs {
			if c := r.Cell(v.Name, p); c != nil {
				fmt.Fprintf(&b, " %.0f |", c.Result.Throughput)
			} else {
				b.WriteString(" - |")
			}
		}
		if c := r.Cell(v.Name, top); c != nil {
			fmt.Fprintf(&b, " %.2f | %.1f |\n", c.SyscallsPerOp(), c.MsgsPerSyscall())
		} else {
			b.WriteString(" - | - |\n")
		}
	}
	return b.String()
}
