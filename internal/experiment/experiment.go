// Package experiment regenerates the paper's evaluation (Ram et al. §5) and
// the extensions built on it. Every figure is one shape: server variants ×
// offered loads, each cell a fresh server under a closed-loop loadgen
// workload, read through the server's own metrics snapshot and sampled
// time series.
//
// A figure is therefore a declared Sweep — rows (a name, a client
// transport, an edit to one base core.Config and an optional edit to the
// loadgen.Config), default loads and repetitions, and the columns its table
// prints. Run executes any sweep through one setup/teardown path and one
// median loop; Report renders any result through one table, Markdown and
// chart renderer. The registry (Sweeps, Lookup) holds one sweep per
// sipexperiment -fig name.
//
// Absolute ops/s depend on the host; the reproduction target is the shape
// — who wins, by what factor, and where the fixes close the gap.
package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"gosip/internal/core"
	"gosip/internal/ipc"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/testutil"
	"gosip/internal/transport"
)

// domain is the SIP domain every cell serves and provisions.
const domain = "bench.gosip"

// samplerInterval is the in-run sampling period: tens of samples from a
// cell of seconds, and a final one when the load ends, so a gauge's peak
// over a run that only grows is its last reading.
const samplerInterval = 200 * time.Millisecond

// Env is the run environment a sweep executes in. Zero fields fall back to
// the sweep's own defaults.
type Env struct {
	// Loads are the offered loads (concurrent caller/callee pairs, the
	// figures' "clients"). A sweep declared at a single load runs at the
	// middle entry instead.
	Loads []int
	// Calls is each caller's closed-loop call (or REGISTER) count.
	Calls int
	// Workers is the server worker count.
	Workers int
	// IPC is the supervisor fd-passing fabric of every tcp-architecture
	// server.
	IPC ipc.Mode
	// Prefill is how many bindings the register sweep pre-fills into the
	// location store.
	Prefill int
	// Reps runs every cell this many times and keeps the median-throughput
	// run.
	Reps int
}

// DefaultEnv runs each sweep at its declared scale, with real SCM_RIGHTS fd
// passing where the host has it and a million pre-filled bindings.
func DefaultEnv() Env {
	mode := ipc.ModeChan
	if runtime.GOOS == "linux" {
		mode = ipc.ModeUnix
	}
	return Env{IPC: mode, Prefill: 1_000_000}
}

// Sweep declares one figure.
type Sweep struct {
	// Name is the sipexperiment -fig name; Title heads the figure's table.
	Name, Title string
	// Loads, Calls, Workers and Reps are the defaults Env overrides.
	Loads                []int
	Calls, Workers, Reps int
	// Server and Load are the sweep-wide edits to every cell's configs,
	// applied before the row's own.
	Server func(*core.Config)
	Load   func(*loadgen.Config)
	Rows   []Row
	// Cols are the columns printed after each cell's ops/s.
	Cols []Column
	// Timelines names the rows whose run timeline at the top load the CLI
	// prints under the table.
	Timelines []string

	// Configure finishes a cell's configs after every edit (transports: the
	// runtime certificate, shared with the phone fleet).
	Configure func(*core.Config, *loadgen.Config) error
	// Start runs on the provisioned server before the load. The stop
	// function it returns runs after the load with the server still up and
	// returns a text block the report prints for the cell.
	Start func(Env, core.Server) (stop func() string, err error)
}

// Row is one server variant of a sweep.
type Row struct {
	Name string
	// Transport and OpsPerConn select the client workload (OpsPerConn 0 =
	// persistent connections). The base server architecture follows the
	// transport: udp for UDP, tcp for the stream transports.
	Transport  transport.Kind
	OpsPerConn int
	// Ref names the row this one is compared against at the same load.
	Ref    string
	Server func(*core.Config)
	Load   func(*loadgen.Config)
}

// Column is one printed quantity: a function of the cell and of its row's
// reference cell (nil when the row has none). "-" marks a value that does
// not apply; a column that is "-" in every cell is not printed.
type Column struct {
	Name  string
	Value func(c, ref *Cell) string
}

// Cell is one (row, load) measurement.
type Cell struct {
	Result   loadgen.Result
	Snapshot metrics.Snapshot
	// Series is the run's sampled time series.
	Series metrics.Series
}

// Report is a completed sweep.
type Report struct {
	Sweep *Sweep
	Loads []int
	// Cells and Notes are indexed [row][load]; Notes holds the Start hook's
	// text for the kept run.
	Cells [][]Cell
	Notes [][]string
}

// Cell returns the measurement for (row name, load), or nil.
func (r *Report) Cell(row string, load int) *Cell {
	for i := range r.Sweep.Rows {
		if r.Sweep.Rows[i].Name != row {
			continue
		}
		for j, l := range r.Loads {
			if l == load {
				return &r.Cells[i][j]
			}
		}
	}
	return nil
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// loads resolves the sweep's load points in env.
func (s *Sweep) loads(env Env) []int {
	switch {
	case len(env.Loads) == 0:
		return s.Loads
	case len(s.Loads) == 1:
		return env.Loads[len(env.Loads)/2 : len(env.Loads)/2+1]
	}
	return env.Loads
}

// configs builds one cell's server and load configuration.
func (s *Sweep) configs(env Env, row *Row, load int) (core.Config, loadgen.Config, error) {
	cfg := core.Config{
		Arch:     core.ArchTCP,
		Workers:  orDefault(env.Workers, s.Workers),
		Stateful: true,
		Domain:   domain,
		IPCMode:  env.IPC,
	}
	if row.Transport == transport.UDP {
		cfg.Arch = core.ArchUDP
	}
	lc := loadgen.Config{
		Transport:      row.Transport,
		Domain:         domain,
		Pairs:          load,
		CallsPerCaller: orDefault(env.Calls, s.Calls),
		OpsPerConn:     row.OpsPerConn,
	}
	for _, edit := range []func(*core.Config){s.Server, row.Server} {
		if edit != nil {
			edit(&cfg)
		}
	}
	for _, edit := range []func(*loadgen.Config){s.Load, row.Load} {
		if edit != nil {
			edit(&lc)
		}
	}
	var err error
	if s.Configure != nil {
		err = s.Configure(&cfg, &lc)
	}
	return cfg, lc, err
}

// Run measures every row at every load, each cell on a fresh server.
// Repetitions are interleaved — rep 1 of every cell, then rep 2 — so a slow
// stretch on a shared host lands on all rows, and each cell keeps its
// median-throughput run. progress, when non-nil, receives one line per run.
func Run(s *Sweep, env Env, progress func(string)) (*Report, error) {
	loads := s.loads(env)
	reps := orDefault(env.Reps, orDefault(s.Reps, 1))
	type run struct {
		cell Cell
		note string
	}
	runs := make([][][]run, len(s.Rows))
	for i := range runs {
		runs[i] = make([][]run, len(loads))
	}
	for rep := 1; rep <= reps; rep++ {
		for i := range s.Rows {
			row := &s.Rows[i]
			for j, load := range loads {
				cell, note, err := runCell(s, env, row, load)
				if err != nil {
					return nil, fmt.Errorf("%s (%s, %d clients): %w", s.Name, row.Name, load, err)
				}
				runs[i][j] = append(runs[i][j], run{cell, note})
				if progress != nil {
					progress(fmt.Sprintf("[%s] rep %d/%d %-24s %4d clients: %s",
						s.Name, rep, reps, row.Name, load, cell.Result))
				}
			}
		}
	}
	rep := &Report{Sweep: s, Loads: loads, Cells: make([][]Cell, len(s.Rows)), Notes: make([][]string, len(s.Rows))}
	for i := range runs {
		for _, rs := range runs[i] {
			sort.Slice(rs, func(a, b int) bool { return rs[a].cell.Result.Throughput < rs[b].cell.Result.Throughput })
			median := rs[len(rs)/2]
			rep.Cells[i] = append(rep.Cells[i], median.cell)
			rep.Notes[i] = append(rep.Notes[i], median.note)
		}
	}
	return rep, nil
}

// runCell is the one setup/teardown path: start the server, provision the
// callers, run the load under the sampler, close the server, then snapshot
// and audit it.
func runCell(s *Sweep, env Env, row *Row, load int) (Cell, string, error) {
	cfg, lc, err := s.configs(env, row, load)
	if err != nil {
		return Cell{}, "", err
	}
	runtime.GC() // level the allocator debt left by the previous cell
	goroutines := runtime.NumGoroutine()
	srv, err := core.New(cfg)
	if err != nil {
		return Cell{}, "", err
	}
	srv.DB().ProvisionN(2*load, cfg.Domain)
	stop := func() string { return "" }
	if s.Start != nil {
		if stop, err = s.Start(env, srv); err != nil {
			srv.Close()
			return Cell{}, "", err
		}
	}
	lc.ProxyAddr = srv.Addr()
	sampler := metrics.StartSampler(srv.Profile(), samplerInterval)
	res, err := loadgen.Run(lc)
	series := sampler.Stop()
	note := stop()
	// The last response reaches its phone before the handler that relayed it
	// returns; Close joins every handler, so the snapshot sees each message
	// counted and its stage timings recorded alike.
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Cell{}, "", err
	}
	cell := Cell{Result: res, Snapshot: srv.Profile().Snapshot(), Series: series}
	return cell, note, audit(cell.Snapshot, goroutines)
}

// audit checks a closed server left nothing behind: every supervisor-issued
// fd handle closed, every receive buffer recycled, every goroutine gone.
func audit(snap metrics.Snapshot, goroutines int) error {
	if issued, closed := snap.Counters[metrics.MetricIPCHandlesIssued], snap.Counters[metrics.MetricIPCHandlesClosed]; issued != closed {
		return fmt.Errorf("fd handles: %d issued, %d closed", issued, closed)
	}
	if n := snap.Counters[metrics.MetricUDPPoolDropped]; n != 0 {
		return fmt.Errorf("udp buffer pool dropped %d buffers", n)
	}
	if n := testutil.SettleGoroutines(goroutines); n > 0 {
		return fmt.Errorf("%d goroutines outlived the server", n)
	}
	return nil
}

// Sweeps returns the registry in -fig all order.
func Sweeps() []*Sweep { return registry }

// Lookup returns the sweep registered under name, or nil.
func Lookup(name string) *Sweep {
	for _, s := range registry {
		if s.Name == name {
			return s
		}
	}
	return nil
}
