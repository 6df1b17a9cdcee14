// Command sipexperiment regenerates the paper's evaluation — Figures 3–5,
// the §5 profile observations, the §4.3 supervisor-priority effect, the §6
// architecture comparison — and the extension sweeps built on them. Each
// -fig name is one sweep of the experiment registry.
//
// Usage:
//
//	sipexperiment -fig 3                 # one figure at its default scale
//	sipexperiment -fig all -md           # everything, with Markdown tables
//	sipexperiment -fig 4 -clients 100,500,1000 -calls 100   # the paper's client counts
//	sipexperiment -fig profile -clients 50
//
// Absolute ops/s depend on the host; the shape (UDP vs TCP ordering, the
// effect of each fix) is the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gosip/internal/experiment"
	"gosip/internal/ipc"
)

func main() {
	var names []string
	for _, s := range experiment.Sweeps() {
		names = append(names, s.Name)
	}
	var (
		fig     = flag.String("fig", "all", "comma-separated experiments: "+strings.Join(names, ", ")+", or all")
		prefill = flag.Int("prefill", 0, "register sweep: pre-filled bindings in the location store (default 1000000)")
		clients = flag.String("clients", "", "comma-separated client counts (default: each sweep's own; single-load sweeps take the middle one)")
		calls   = flag.Int("calls", 0, "calls (register: REGISTERs) per caller (default: each sweep's own)")
		workers = flag.Int("workers", 0, "server worker count (default: each sweep's own)")
		ipcMode = flag.String("ipc", "", "IPC fabric for TCP: unix or chan (default: unix on linux)")
		md      = flag.Bool("md", false, "also print Markdown tables for EXPERIMENTS.md")
		quiet   = flag.Bool("q", false, "suppress per-cell progress lines")
	)
	flag.Parse()

	env := experiment.DefaultEnv()
	if *clients != "" {
		for _, part := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fatalf("bad -clients value %q", part)
			}
			env.Loads = append(env.Loads, n)
		}
	}
	env.Calls, env.Workers = *calls, *workers
	if *ipcMode != "" {
		env.IPC = ipc.Mode(*ipcMode)
	}
	if *prefill > 0 {
		env.Prefill = *prefill
	}

	var sweeps []*experiment.Sweep
	if *fig == "all" {
		sweeps = experiment.Sweeps()
	} else {
		for _, name := range strings.Split(*fig, ",") {
			s := experiment.Lookup(strings.TrimSpace(name))
			if s == nil {
				fatalf("unknown experiment %q (valid: %s, all)", name, strings.Join(names, ", "))
			}
			sweeps = append(sweeps, s)
		}
	}

	progress := func(s string) { fmt.Fprintln(os.Stderr, s) }
	if *quiet {
		progress = nil
	}
	start := time.Now()
	for _, s := range sweeps {
		rep, err := experiment.Run(s, env, progress)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println()
		fmt.Print(rep.Chart())
		fmt.Println()
		fmt.Print(rep.Table())
		top := rep.Loads[len(rep.Loads)-1]
		for _, name := range s.Timelines {
			if c := rep.Cell(name, top); c != nil && len(c.Series.Samples) > 0 {
				fmt.Printf("\nRun timeline, %s @ %d clients (per-interval ops/s and stage P99):\n", name, top)
				fmt.Print(c.Timeline())
			}
		}
		if *md {
			fmt.Println()
			fmt.Print(rep.Markdown())
		}
	}
	fmt.Fprintf(os.Stderr, "\ntotal experiment time: %v\n", time.Since(start).Round(time.Second))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sipexperiment: "+format+"\n", args...)
	os.Exit(1)
}
