//go:build linux

// Command bench is the repository's benchmark: it builds cmd/sipproxyd, runs
// it as a child process, drives it over loopback from its own SIP generator
// and prints every metric by name. See README.md in this directory.
//
//	go run ./bench -seed 1                      # the whole ledger, one JSON document
//	go run ./bench -compare a.json b.json       # two ledgers, one row per (metric, workload)
//	bash bench/run.sh --workload udp.calls --seed 1 --seconds 10 --trace 0   # one run, one JSON line
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// env is where things are on disk.
type env struct {
	root     string // module root (holds go.mod)
	buildDir string // binaries; git-ignored
	outDir   string // span files; git-ignored
	proxyBin string
}

// findEnv locates the module root from the working directory: the command
// is run from the root, the tests from bench/.
func findEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module gosip\n") {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no gosip go.mod at or above the working directory")
		}
		dir = parent
	}
	e := &env{root: dir, buildDir: filepath.Join(dir, ".bench_build", "bin"), outDir: filepath.Join(dir, "bench", "out")}
	e.proxyBin = filepath.Join(e.buildDir, "sipproxyd")
	return e, nil
}

// goBuild compiles one package of the module into the build directory.
func (e *env) goBuild(ctx context.Context, out, pkg string, tags ...string) error {
	args := []string{"build", "-o", out}
	if len(tags) > 0 {
		args = append(args, "-tags", strings.Join(tags, ","))
	}
	cmd := exec.CommandContext(ctx, "go", append(args, pkg)...)
	cmd.Dir = e.root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", pkg, err, msg)
	}
	return nil
}

func main() {
	var (
		wlName  = flag.String("workload", "", "run one round of this workload and print the one-line result (default: the whole ledger)")
		seed    = flag.Uint64("seed", 1, "workload seed: users, AOR order and message identifiers derive from it")
		seconds = flag.Int("seconds", 8, "measured seconds per round")
		traced  = flag.Int("trace", 0, "with -workload: 1 prints the per-layer metrics of a traced round instead of the end-to-end ones")
		compare = flag.Bool("compare", false, "compare two ledger files: bench -compare base.json change.json")
	)
	flag.Parse()
	// Every exit path below returns through run, whose deferred calls kill
	// and reap the server and close every socket; a signal only cancels ctx.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, *wlName, *seed, *seconds, *traced != 0, *compare, flag.Args())
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, wlName string, seed uint64, seconds int, traced, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two ledger files, got %d arguments", len(args))
		}
		return compareLedgers(os.Stdout, args[0], args[1])
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	e, err := findEnv()
	if err != nil {
		return err
	}
	if err := e.goBuild(ctx, e.proxyBin, "./cmd/sipproxyd"); err != nil {
		return err
	}
	if wlName == "" {
		l, err := e.runLedger(ctx, seed, seconds)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(l)
	}
	wl := findWorkload(wlName)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", wlName)
	}
	return e.runOne(ctx, wl, seed, seconds, traced)
}

// setupsPerRun is how many times a single-workload run performs set-up;
// setup_s is their median, which keeps a 10 ms quantity steady.
const setupsPerRun = 15

// oneResult is the line a single-workload run ends with.
type oneResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]oneMetric `json:"metrics"`
}

type oneMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the single-run form a harness drives: one round of one
// workload, ending in one JSON line with the end-to-end metrics, or with
// the per-layer ones after a traced round.
func (e *env) runOne(ctx context.Context, wl *workload, seed uint64, seconds int, traced bool) error {
	out := oneResult{Metrics: map[string]oneMetric{}}
	var r *roundResult
	var err error
	if traced {
		rep := &workloadReport{}
		if r, err = e.tracedRound(ctx, e.buildLayers(ctx), wl, seed, seconds, rep); err != nil {
			return err
		}
		for _, d := range perLayer {
			// This line must carry a number for every metric; one that could
			// not be measured reads 0 here and null, with the reason, in the
			// ledger. The reason is on stderr.
			m := oneMetric{Unit: d.Unit}
			if x := rep.PerLayer[d.Name]; x != nil {
				m.Value = *x
			}
			out.Metrics[d.Name] = m
		}
		progress("%s: layers: %s; %d calls in %s", wl.name, rep.LayersStatus, rep.TraceCalls, rep.TraceFile)
	} else {
		if r, err = runRound(ctx, e.proxyBin, roundOpts{wl: wl, seed: seed, warm: warmUp,
			measure: time.Duration(seconds) * time.Second, setups: setupsPerRun}); err != nil {
			return err
		}
		for _, d := range endToEnd {
			out.Metrics[d.Name] = oneMetric{r.endToEndValue(d.Name), d.Unit}
		}
		progress("%s: machine_speed %.3f (generator %.1f us cpu/op, nominal %.1f); as the clocks read: %.0f ops/s, %.1f us cpu/op, "+
			"p50 %.0f us, p99 %.0f us (%d samples), p99.9 %.0f us, max %.0f us, rss %.0f MB; gen_cpu_share %.2f, failed_by %v",
			wl.name, r.Speed, r.GenCPUUsPerOp, wl.genUs, r.Raw.OpsPerS, r.Raw.CPUUsPerOp, r.Raw.LatP50Us, r.Raw.LatP99Us,
			r.Samples, r.LatP999Us, r.LatMaxUs, r.Raw.ServerRSSMB, r.GenCPUShare, r.FailedBy)
	}
	if r.Invalid != "" {
		progress("%s: invalid: %s", wl.name, r.Invalid)
	}
	out.Correct = r.Invalid == "" && r.Failed == 0
	out.Attempted, out.Failed = max(r.Attempted, 1), r.Failed
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
