// Package experiment regenerates the paper's evaluation (Ram et al. §5):
// Figure 3 (baseline UDP vs TCP throughput), Figure 4 (the file-descriptor
// cache), Figure 5 (priority-queue connection management), the §5 profile
// observations (time in IPC and in the idle scan), the §4.3 supervisor
// priority effect, and the §6 discussion points (multi-threaded shared
// address space, SCTP-style transport).
//
// Each cell of a figure is an independent run: a fresh server of the
// variant under test, a provisioned user base, and a loadgen closed-loop
// workload. Absolute ops/s depend on the host; the reproduction target is
// the shape — who wins, by what factor, and where the fixes close the gap.
package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/ipc"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/transport"
)

// Workload is one bar group of the paper's figures.
type Workload struct {
	// Name is the paper's label, e.g. "TCP 50 ops/conn".
	Name string
	// Transport selects the client transport.
	Transport transport.Kind
	// OpsPerConn is the TCP reconnect policy (0 = persistent).
	OpsPerConn int
}

// IsUDP reports whether this is the UDP reference workload.
func (w Workload) IsUDP() bool { return w.Transport == transport.UDP }

// StandardWorkloads returns the four workloads of Figures 3–5.
func StandardWorkloads() []Workload {
	return []Workload{
		{Name: "TCP 50 ops/conn", Transport: transport.TCP, OpsPerConn: 50},
		{Name: "TCP 500 ops/conn", Transport: transport.TCP, OpsPerConn: 500},
		{Name: "TCP persistent", Transport: transport.TCP, OpsPerConn: 0},
		{Name: "UDP", Transport: transport.UDP, OpsPerConn: 0},
	}
}

// Scale sets the experiment's size. The paper drove 100/500/1000
// simultaneous clients from three dedicated machines into a 4-core server;
// DefaultScale is shrunk for a shared single-core host, preserving the
// load ratios (1:5:10 becomes the default Clients slice).
type Scale struct {
	// Clients are the concurrent caller counts (the figures' x-axis).
	Clients []int
	// CallsPerCaller is each caller's closed-loop call count; one call is
	// two operations.
	CallsPerCaller int
	// Workers is the server worker count (paper: 24 UDP / 32 TCP).
	Workers int
	// IPCMode selects the supervisor IPC fabric for TCP servers.
	IPCMode ipc.Mode
	// IdleTimeout, SupervisorGrace, IdleCheckInterval scale the §4.3
	// connection-management configuration (paper: 10s idle timeout).
	IdleTimeout       time.Duration
	SupervisorGrace   time.Duration
	IdleCheckInterval time.Duration
	// ResponseTimeout is phone patience per response.
	ResponseTimeout time.Duration
}

// DefaultScale returns a single-host configuration that completes each
// figure in tens of seconds.
func DefaultScale() Scale {
	mode := ipc.ModeChan
	if runtime.GOOS == "linux" {
		mode = ipc.ModeUnix // real SCM_RIGHTS fd passing
	}
	return Scale{
		Clients:        []int{10, 50, 100},
		CallsPerCaller: 100,
		Workers:        8,
		IPCMode:        mode,
		// The paper's tuned idle timeout (§4.3): connections churned by the
		// non-persistent workloads accumulate in the shared table for 10s,
		// which is what makes the baseline full-table scan expensive.
		IdleTimeout:       10 * time.Second,
		SupervisorGrace:   5 * time.Second,
		IdleCheckInterval: 100 * time.Millisecond,
		ResponseTimeout:   2 * time.Second,
	}
}

// PaperScale returns the paper's client counts; expect minutes per figure
// on a small host.
func PaperScale() Scale {
	s := DefaultScale()
	s.Clients = []int{100, 500, 1000}
	s.CallsPerCaller = 100
	return s
}

// Variant builds the server configuration for a workload — the thing each
// figure varies.
type Variant func(w Workload, sc Scale) core.Config

// Cell is one (workload, client-count) measurement.
type Cell struct {
	Workload Workload
	Clients  int
	Result   loadgen.Result
	Snapshot metrics.Snapshot
	// Series is the run's sampled time series (throughput, per-stage
	// percentiles, runtime health over the measured window).
	Series metrics.Series
}

// samplerInterval is the in-run sampling period. Cells at default scale run
// for seconds, so this yields tens of samples without measurable overhead.
const samplerInterval = 200 * time.Millisecond

// seriesStages are the pipeline stages shown in run-timeline tables; the
// renderer drops the ones an architecture never exercises.
var seriesStages = []string{
	metrics.StageParse, metrics.StageProcess, metrics.StageSend,
	metrics.StageFDIPC, metrics.StageIdleScan,
}

// SeriesTable renders the cell's run timeline (ops/s and per-stage P99 per
// sampling interval) as text; empty when the run was too short to sample.
func (c *Cell) SeriesTable() string {
	stages := c.Series.ActiveStages(seriesStages)
	return c.Series.Table(metrics.MetricMsgsProcessed, stages)
}

// SeriesMarkdown is SeriesTable as a GitHub table for EXPERIMENTS.md.
func (c *Cell) SeriesMarkdown() string {
	stages := c.Series.ActiveStages(seriesStages)
	return c.Series.Markdown(metrics.MetricMsgsProcessed, stages)
}

// SeriesStages returns the stage set timeline tables consider.
func SeriesStages() []string { return append([]string(nil), seriesStages...) }

// Figure is a completed experiment matrix.
type Figure struct {
	ID    string
	Title string
	Scale Scale
	Cells []Cell
}

// CellFor returns the measurement for (workload name, clients), or nil.
func (f *Figure) CellFor(name string, clients int) *Cell { return f.cell(name, clients) }

// cell returns the measurement for (workload name, clients), or nil.
func (f *Figure) cell(name string, clients int) *Cell {
	for i := range f.Cells {
		if f.Cells[i].Workload.Name == name && f.Cells[i].Clients == clients {
			return &f.Cells[i]
		}
	}
	return nil
}

// Throughput returns ops/s for (workload name, clients), or 0.
func (f *Figure) Throughput(name string, clients int) float64 {
	if c := f.cell(name, clients); c != nil {
		return c.Result.Throughput
	}
	return 0
}

// RunMatrix measures every workload at every client count with a fresh
// server per cell. progress, when non-nil, receives one line per cell.
func RunMatrix(id, title string, sc Scale, variant Variant, workloads []Workload, progress func(string)) (*Figure, error) {
	fig := &Figure{ID: id, Title: title, Scale: sc}
	for _, clients := range sc.Clients {
		for _, w := range workloads {
			cell, err := runCell(w, clients, sc, variant)
			if err != nil {
				return nil, fmt.Errorf("experiment %s (%s, %d clients): %w", id, w.Name, clients, err)
			}
			fig.Cells = append(fig.Cells, *cell)
			if progress != nil {
				progress(fmt.Sprintf("[fig %s] %-18s %4d clients: %s", id, w.Name, clients, cell.Result))
			}
		}
	}
	return fig, nil
}

func runCell(w Workload, clients int, sc Scale, variant Variant) (*Cell, error) {
	cfg := variant(w, sc)
	srv, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	srv.DB().ProvisionN(2*clients, cfg.Domain)

	sampler := metrics.StartSampler(srv.Profile(), samplerInterval)
	res, err := loadgen.Run(loadgen.Config{
		Transport:       w.Transport,
		ProxyAddr:       srv.Addr(),
		Domain:          cfg.Domain,
		Pairs:           clients,
		CallsPerCaller:  sc.CallsPerCaller,
		OpsPerConn:      w.OpsPerConn,
		ResponseTimeout: sc.ResponseTimeout,
	})
	series := sampler.Stop()
	if err != nil {
		return nil, err
	}
	// The last response reaches its phone before the handler that relayed it
	// returns; Close joins every handler, so the snapshot sees each message
	// counted and its stage timings recorded alike.
	srv.Close()
	return &Cell{Workload: w, Clients: clients, Result: res, Snapshot: srv.Profile().Snapshot(), Series: series}, nil
}

// baseConfig assembles the parts of the server config every figure shares.
func baseConfig(w Workload, sc Scale) core.Config {
	arch := core.ArchTCP
	if w.IsUDP() {
		arch = core.ArchUDP
	}
	return core.Config{
		Arch:              arch,
		Workers:           sc.Workers,
		Stateful:          true,
		Domain:            "bench.gosip",
		IPCMode:           sc.IPCMode,
		IdleTimeout:       sc.IdleTimeout,
		SupervisorGrace:   sc.SupervisorGrace,
		IdleCheckInterval: sc.IdleCheckInterval,
	}
}

// Figure3 is the baseline: no fd cache, full-scan idle management.
func Figure3(sc Scale, progress func(string)) (*Figure, error) {
	return RunMatrix("3", "Baseline OpenSER performance", sc,
		func(w Workload, sc Scale) core.Config {
			cfg := baseConfig(w, sc)
			cfg.FDCache = false
			cfg.ConnMgr = connmgr.KindScan
			return cfg
		}, StandardWorkloads(), progress)
}

// Figure4 adds the per-worker file-descriptor cache (§5.2).
func Figure4(sc Scale, progress func(string)) (*Figure, error) {
	return RunMatrix("4", "File descriptor cache performance", sc,
		func(w Workload, sc Scale) core.Config {
			cfg := baseConfig(w, sc)
			cfg.FDCache = true
			cfg.ConnMgr = connmgr.KindScan
			return cfg
		}, StandardWorkloads(), progress)
}

// Figure5 adds priority-queue idle management on top of the cache (§5.3).
func Figure5(sc Scale, progress func(string)) (*Figure, error) {
	return RunMatrix("5", "Priority queue performance", sc,
		func(w Workload, sc Scale) core.Config {
			cfg := baseConfig(w, sc)
			cfg.FDCache = true
			cfg.ConnMgr = connmgr.KindPQueue
			return cfg
		}, StandardWorkloads(), progress)
}

// Table renders a paper-style throughput matrix.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s (ops/s)\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-20s", "workload")
	for _, c := range f.Scale.Clients {
		fmt.Fprintf(&b, "%14s", fmt.Sprintf("%d clients", c))
	}
	b.WriteByte('\n')
	for _, w := range f.workloads() {
		fmt.Fprintf(&b, "%-20s", w)
		for _, c := range f.Scale.Clients {
			fmt.Fprintf(&b, "%14.0f", f.Throughput(w, c))
		}
		b.WriteByte('\n')
	}
	b.WriteString(f.ratioLines())
	return b.String()
}

// Markdown renders the matrix as a Markdown table for EXPERIMENTS.md.
func (f *Figure) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| workload |")
	for _, c := range f.Scale.Clients {
		fmt.Fprintf(&b, " %d clients |", c)
	}
	b.WriteString("\n|---|")
	for range f.Scale.Clients {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, w := range f.workloads() {
		fmt.Fprintf(&b, "| %s |", w)
		for _, c := range f.Scale.Clients {
			fmt.Fprintf(&b, " %.0f |", f.Throughput(w, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (f *Figure) workloads() []string {
	var names []string
	seen := map[string]bool{}
	for _, c := range f.Cells {
		if !seen[c.Workload.Name] {
			seen[c.Workload.Name] = true
			names = append(names, c.Workload.Name)
		}
	}
	return names
}

// ratioLines summarizes each TCP workload as a percentage of UDP — the
// quantity the paper's abstract tracks (13–51% baseline → 50–78% fixed).
func (f *Figure) ratioLines() string {
	var b strings.Builder
	for _, w := range f.workloads() {
		if w == "UDP" {
			continue
		}
		fmt.Fprintf(&b, "%-20s", w+" /UDP")
		for _, c := range f.Scale.Clients {
			udp := f.Throughput("UDP", c)
			if udp <= 0 {
				fmt.Fprintf(&b, "%14s", "-")
				continue
			}
			fmt.Fprintf(&b, "%13.0f%%", 100*f.Throughput(w, c)/udp)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TCPOfUDPRange returns the min and max TCP-as-%-of-UDP across all TCP
// workloads and client counts — the abstract's headline numbers.
func (f *Figure) TCPOfUDPRange() (lo, hi float64) {
	lo, hi = 1e18, -1
	for _, w := range f.workloads() {
		if w == "UDP" {
			continue
		}
		for _, c := range f.Scale.Clients {
			udp := f.Throughput("UDP", c)
			if udp <= 0 {
				continue
			}
			r := 100 * f.Throughput(w, c) / udp
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
	}
	if hi < 0 {
		return 0, 0
	}
	return lo, hi
}
