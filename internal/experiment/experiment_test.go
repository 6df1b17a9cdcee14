package experiment

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gosip/internal/ipc"
	"gosip/internal/metrics"
	"gosip/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/configs.golden from the registry")

// smoke runs every registered sweep once at one small load — six clients
// (so a random worker assignment cannot co-locate every pair and leave the
// baseline without fd IPC), three calls, four workers, one rep. The tests
// below share its reports.
var smoke = sync.OnceValues(func() (map[string]*Report, error) {
	env := DefaultEnv()
	env.Loads, env.Calls, env.Workers, env.Prefill, env.Reps = []int{6}, 3, 4, 2000, 1
	out := map[string]*Report{}
	for _, s := range Sweeps() {
		rep, err := Run(s, env, nil)
		if err != nil {
			return nil, err
		}
		out[s.Name] = rep
	}
	return out, nil
})

func smokeReport(t *testing.T, name string) *Report {
	t.Helper()
	reps, err := smoke()
	if err != nil {
		t.Fatal(err)
	}
	return reps[name]
}

// TestSweepSmoke: every sweep runs every row, every cell's server left its
// ledgers balanced (Run also fails a cell whose goroutines do not settle),
// and both renderers name every row.
func TestSweepSmoke(t *testing.T) {
	for _, s := range Sweeps() {
		r := smokeReport(t, s.Name)
		for i, row := range s.Rows {
			for j, load := range r.Loads {
				c := &r.Cells[i][j]
				name := fmt.Sprintf("%s/%s@%d", s.Name, row.Name, load)
				if c.Result.Ops == 0 {
					t.Errorf("%s: no operations completed: %v", name, c.Result)
				}
				if issued, closed := c.Snapshot.Counters[metrics.MetricIPCHandlesIssued], c.Snapshot.Counters[metrics.MetricIPCHandlesClosed]; issued != closed {
					t.Errorf("%s: fd handles issued %d, closed %d", name, issued, closed)
				}
				if n := c.Snapshot.Counters[metrics.MetricUDPPoolDropped]; n != 0 {
					t.Errorf("%s: udp buffer pool dropped %d", name, n)
				}
			}
		}
		table, md := r.Table(), r.Markdown()
		for _, row := range s.Rows {
			if !strings.Contains(table, row.Name) || !strings.Contains(md, "| "+row.Name+" |") {
				t.Errorf("%s: row %q missing from the table or the markdown:\n%s\n%s", s.Name, row.Name, table, md)
			}
		}
	}
}

// TestFigureVariantsProduceExpectedConfigs pins, for every -fig name and
// row, the server and load configuration the registry builds at the default
// environment (run with -update to rewrite the table after an intended
// change).
func TestFigureVariantsProduceExpectedConfigs(t *testing.T) {
	env := DefaultEnv()
	env.IPC = ipc.ModeUnix
	var b strings.Builder
	for _, s := range Sweeps() {
		loads := s.loads(env)
		fmt.Fprintf(&b, "== %s loads=%v reps=%d\n", s.Name, loads, orDefault(s.Reps, 1))
		for i := range s.Rows {
			cfg, lc, err := s.configs(env, &s.Rows[i], loads[0])
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "[%s] %s\n  core: %s\n  load: %s\n", s.Name, s.Rows[i].Name, describe(cfg), describe(lc))
		}
	}
	const golden = "testdata/configs.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("registry configs differ from %s:\n%s", golden, got)
	}
}

// describe lists a config's non-zero fields, nested structs flattened to
// dotted names; run-time values (addresses, keys, the profile) are left out.
func describe(v any) string {
	var out []string
	walk("", reflect.ValueOf(v), &out)
	return strings.Join(out, " ")
}

func walk(prefix string, v reflect.Value, out *[]string) {
	skip := map[string]bool{"ProxyAddr": true, "Cert": true, "RootCAs": true, "Profile": true}
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		if !f.IsExported() || fv.IsZero() || skip[f.Name] {
			continue
		}
		name := prefix + f.Name
		if fv.Kind() == reflect.Pointer {
			fv = fv.Elem()
		}
		if fv.Kind() == reflect.Struct {
			n := len(*out)
			walk(name+".", fv, out)
			if len(*out) == n {
				*out = append(*out, name+"=set")
			}
			continue
		}
		*out = append(*out, fmt.Sprintf("%s=%v", name, fv.Interface()))
	}
}

// TestScales: every sweep declares a runnable default scale and rows whose
// references resolve, and single-load sweeps take the middle of an
// explicit load list.
func TestScales(t *testing.T) {
	if len(Sweeps()) != 14 {
		t.Errorf("registry holds %d sweeps, want the 14 -fig names", len(Sweeps()))
	}
	for _, s := range Sweeps() {
		if Lookup(s.Name) != s {
			t.Errorf("%s: Lookup finds another sweep", s.Name)
		}
		if len(s.Loads) == 0 || s.Calls <= 0 || s.Workers <= 0 || len(s.Rows) == 0 {
			t.Errorf("%s: default scale loads=%v calls=%d workers=%d rows=%d", s.Name, s.Loads, s.Calls, s.Workers, len(s.Rows))
		}
		rows := map[string]bool{}
		for _, r := range s.Rows {
			if rows[r.Name] {
				t.Errorf("%s: duplicate row %q", s.Name, r.Name)
			}
			rows[r.Name] = true
		}
		for _, r := range s.Rows {
			if r.Ref != "" && (!rows[r.Ref] || r.Ref == r.Name) {
				t.Errorf("%s/%s: reference %q is not another row", s.Name, r.Name, r.Ref)
			}
		}
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of an unknown name found a sweep")
	}
	if env := DefaultEnv(); env.IPC == "" || env.Prefill <= 0 {
		t.Errorf("DefaultEnv = %+v", env)
	}
	env := Env{Loads: []int{100, 500, 1000}}
	if got := Lookup("profile").loads(env); !reflect.DeepEqual(got, []int{500}) {
		t.Errorf("profile loads = %v, want the middle client count", got)
	}
	if got := Lookup("3").loads(env); !reflect.DeepEqual(got, env.Loads) {
		t.Errorf("figure 3 loads = %v, want %v", got, env.Loads)
	}
}

// TestStandardWorkloads: Figures 3–5 run the paper's four workloads, each
// TCP one read as a percentage of UDP.
func TestStandardWorkloads(t *testing.T) {
	want := []Row{
		{Name: "TCP 50 ops/conn", Transport: transport.TCP, OpsPerConn: 50, Ref: "UDP"},
		{Name: "TCP 500 ops/conn", Transport: transport.TCP, OpsPerConn: 500, Ref: "UDP"},
		{Name: "TCP persistent", Transport: transport.TCP, Ref: "UDP"},
		{Name: "UDP", Transport: transport.UDP},
	}
	for _, fig := range []string{"3", "4", "5"} {
		rows := Lookup(fig).Rows
		if len(rows) != len(want) {
			t.Fatalf("figure %s: %d rows", fig, len(rows))
		}
		for i, w := range want {
			r := rows[i]
			if r.Name != w.Name || r.Transport != w.Transport || r.OpsPerConn != w.OpsPerConn || r.Ref != w.Ref {
				t.Errorf("figure %s row %d = %s %s ops/conn=%d ref=%q, want %+v", fig, i, r.Name, r.Transport, r.OpsPerConn, r.Ref, w)
			}
		}
	}
}

func TestRunMatrixShape(t *testing.T) {
	r := smokeReport(t, "3")
	if len(r.Cells) != 4 || len(r.Cells[0]) != len(r.Loads) {
		t.Fatalf("cells = %d rows x %d loads", len(r.Cells), len(r.Cells[0]))
	}
	for i, row := range r.Sweep.Rows {
		if c := r.Cells[i][0]; c.Result.CallsFailed != 0 || c.Result.Throughput <= 0 {
			t.Errorf("%s: %v", row.Name, c.Result)
		}
	}
	if c := r.Cell("UDP", 6); c == nil || c.Result.Throughput <= 0 {
		t.Error("Cell lookup failed")
	}
	if r.Cell("nope", 6) != nil || r.Cell("UDP", 7) != nil {
		t.Error("unknown cells should be nil")
	}
	tbl := r.Table()
	for _, want := range []string{"Figure 3", "UDP", "TCP persistent", "% of UDP"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	if md := r.Markdown(); !strings.Contains(md, "| row | clients | ops/s | vs ref |") || !strings.Contains(md, "| UDP | 6 |") {
		t.Errorf("markdown malformed:\n%s", md)
	}
}

func TestChartRendering(t *testing.T) {
	chart := smokeReport(t, "3").Chart()
	if !strings.Contains(chart, "█") {
		t.Errorf("no bars rendered:\n%s", chart)
	}
	for _, w := range []string{"UDP", "TCP persistent", "6 clients"} {
		if !strings.Contains(chart, w) {
			t.Errorf("chart missing %q", w)
		}
	}
	empty := &Report{Sweep: Lookup("3"), Loads: []int{1}, Cells: make([][]Cell, 4)}
	for i := range empty.Cells {
		empty.Cells[i] = make([]Cell, 1)
	}
	if empty.Chart() != "" {
		t.Error("empty report rendered bars")
	}
}

// TestCellSeriesCollected: every cell carries a sampled time series, and
// the timeline renderer produces non-trivial output from it.
func TestCellSeriesCollected(t *testing.T) {
	c := smokeReport(t, "3").Cell("UDP", 6)
	if len(c.Series.Samples) == 0 {
		t.Fatal("cell has no time-series samples")
	}
	last := c.Series.Samples[len(c.Series.Samples)-1]
	if last.Snap.Counters[metrics.MetricMsgsProcessed] == 0 {
		t.Error("final sample saw no traffic")
	}
	if tl := c.Timeline(); !strings.Contains(tl, "rate/s") || !strings.Contains(tl, "p99(parse)") {
		t.Errorf("timeline malformed:\n%s", tl)
	}
}

// TestRunProfileSmoke runs the persistent rows of the profile with enough
// calls per connection for the fd cache to amortize its first misses.
func TestRunProfileSmoke(t *testing.T) {
	s := *profile
	s.Rows = s.Rows[:2]
	env := DefaultEnv()
	env.Loads, env.Calls, env.Workers = []int{6}, 10, 4
	r, err := Run(&s, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, cached := ipcShare(r.Cells[0][0].Snapshot), ipcShare(r.Cells[1][0].Snapshot)
	if base <= 0 {
		t.Error("baseline IPC share is zero")
	}
	if cached >= base {
		t.Errorf("fd cache did not reduce IPC share: %.1f%% -> %.1f%%", base, cached)
	}
	if out := r.Table(); !strings.Contains(out, "ipc % busy") || !strings.Contains(out, "scan visits") {
		t.Errorf("report malformed:\n%s", out)
	}
}

func TestRunPrioritySmoke(t *testing.T) {
	r := smokeReport(t, "priority")
	boosted, starved := r.Cell("boosted", 6).Result.Throughput, r.Cell("starved", 6).Result.Throughput
	if boosted <= 0 || starved <= 0 {
		t.Fatalf("throughputs: boosted=%f starved=%f", boosted, starved)
	}
	if starved >= boosted {
		t.Errorf("starvation did not hurt: boosted=%.0f starved=%.0f", boosted, starved)
	}
}

func TestRunArchitecturesSmoke(t *testing.T) {
	r := smokeReport(t, "arch")
	for _, name := range []string{"TCP fixed (fdcache+pq)", "Threaded (§6)", "SCTP-sim (§6)", "UDP"} {
		if c := r.Cell(name, 6); c == nil || c.Result.Throughput <= 0 {
			t.Errorf("%s: zero throughput", name)
		}
	}
}

func TestRunScenariosSmoke(t *testing.T) {
	r := smokeReport(t, "scenarios")
	for _, name := range []string{"proxy", "proxy+auth", "redirect", "registration"} {
		if c := r.Cell(name, 6); c == nil || c.Result.Throughput <= 0 {
			t.Errorf("%s: zero throughput", name)
		}
	}
}

func TestRunLossSmoke(t *testing.T) {
	r := smokeReport(t, "loss")
	if len(r.Cells) != 4 {
		t.Fatalf("got %d loss rates", len(r.Cells))
	}
	for i, row := range r.Sweep.Rows {
		if n := r.Cells[i][0].Result.CallsFailed; n != 0 {
			t.Errorf("%s: %d failed calls", row.Name, n)
		}
	}
}

// TestRunStagesSmoke: the per-stage comparison runs all four variants and
// every counted event also landed in its stage histogram. (Whether the
// baseline pays fd IPC at all at this scale depends on which worker owns
// each connection, so the counts themselves are not asserted.)
func TestRunStagesSmoke(t *testing.T) {
	r := smokeReport(t, "stages")
	if len(r.Cells) != 4 {
		t.Fatalf("variants = %d, want 4", len(r.Cells))
	}
	for i, row := range r.Sweep.Rows {
		s := r.Cells[i][0].Snapshot
		if s.Histograms[metrics.StageProcess].Count == 0 {
			t.Errorf("%s: process stage histogram empty", row.Name)
		}
		for hist, counter := range map[string]string{
			metrics.StageFDIPC:      metrics.MetricIPCCount,
			metrics.StageFDCacheHit: metrics.MetricFDCacheHit,
			metrics.StageProcess:    metrics.MetricMsgsProcessed,
		} {
			if got, want := s.Histograms[hist].Count, s.Counters[counter]; got != want {
				t.Errorf("%s: %s histogram %d != %s counter %d", row.Name, hist, got, counter, want)
			}
		}
	}
	table := r.Table()
	for _, want := range []string{"parse", "process", "ops/s", "TCP baseline", "UDP"} {
		if !strings.Contains(table, want) {
			t.Errorf("stage table missing %q:\n%s", want, table)
		}
	}
}

// TestRunOverloadShape: every policy × transport cell runs and completes
// calls at a gentle load. The collapse-vs-control shape needs the real
// scale in cmd/sipexperiment and is not asserted here.
func TestRunOverloadShape(t *testing.T) {
	r := smokeReport(t, "overload")
	if len(r.Cells) != 6 {
		t.Fatalf("cells = %d, want 2 transports x 3 policies", len(r.Cells))
	}
	for i, row := range r.Sweep.Rows {
		if r.Cells[i][0].Result.CallsCompleted == 0 {
			t.Errorf("%s: no calls completed at gentle load", row.Name)
		}
	}
	if r.Cell("udp/threshold", 6) == nil {
		t.Error("Cell lookup failed")
	}
	if !strings.Contains(r.Table(), "goodput") || !strings.Contains(r.Table(), "% of tcp/none") {
		t.Errorf("table malformed:\n%s", r.Table())
	}
}
