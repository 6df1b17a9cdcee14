// Command sipexperiment regenerates the paper's evaluation: Figures 3–5,
// the §5 profile observations, the §4.3 supervisor-priority effect, and
// the §6 architecture comparison.
//
// Usage:
//
//	sipexperiment -fig 3                 # one figure at the default scale
//	sipexperiment -fig all -md           # everything, with Markdown tables
//	sipexperiment -fig 4 -clients 100,500,1000 -calls 100
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
	"gosip/internal/transport"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "which experiment: 3, 4, 5, profile, priority, arch, stages, transports, overload, batching, locks, register, outliers, or all")
		prefill = flag.Int("prefill", 0, "register sweep: pre-filled bindings in the location store (default 1000000)")
		clients = flag.String("clients", "", "comma-separated client counts (default scale: 10,50,100)")
		calls   = flag.Int("calls", 0, "calls per caller (default 100)")
		workers = flag.Int("workers", 0, "server worker count (default 8)")
		ipcMode = flag.String("ipc", "", "IPC fabric for TCP: unix or chan (default: unix on linux)")
		paper   = flag.Bool("paper-scale", false, "use the paper's client counts (100,500,1000)")
		md      = flag.Bool("md", false, "also print Markdown tables for EXPERIMENTS.md")
		quiet   = flag.Bool("q", false, "suppress per-cell progress lines")
	)
	flag.Parse()

	sc := experiment.DefaultScale()
	if *paper {
		sc = experiment.PaperScale()
	}
	if *clients != "" {
		sc.Clients = nil
		for _, part := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fatalf("bad -clients value %q", part)
			}
			sc.Clients = append(sc.Clients, n)
		}
	}
	if *calls > 0 {
		sc.CallsPerCaller = *calls
	}
	if *workers > 0 {
		sc.Workers = *workers
	}
	if *ipcMode != "" {
		sc.IPCMode = ipc.Mode(*ipcMode)
	}

	progress := func(s string) { fmt.Fprintln(os.Stderr, s) }
	if *quiet {
		progress = nil
	}

	which := strings.Split(*fig, ",")
	if *fig == "all" {
		which = []string{"3", "4", "5", "profile", "priority", "arch", "scenarios", "loss", "stages", "transports", "overload", "batching", "locks", "register", "outliers"}
	}
	start := time.Now()
	for _, f := range which {
		switch strings.TrimSpace(f) {
		case "3":
			runFigure(experiment.Figure3, sc, progress, *md)
		case "4":
			runFigure(experiment.Figure4, sc, progress, *md)
		case "5":
			runFigure(experiment.Figure5, sc, progress, *md)
		case "profile":
			mid := sc.Clients[len(sc.Clients)/2]
			rep, err := experiment.RunProfile(sc, mid, progress)
			if err != nil {
				fatalf("profile: %v", err)
			}
			fmt.Println()
			fmt.Print(rep.String())
		case "priority":
			mid := sc.Clients[len(sc.Clients)/2]
			boosted, starved, err := experiment.RunPriority(sc, mid, 500*time.Microsecond, progress)
			if err != nil {
				fatalf("priority: %v", err)
			}
			fmt.Println()
			fmt.Printf("Supervisor priority effect (paper §4.3, +40–100%% from boosting):\n")
			fmt.Printf("  starved supervisor: %8.0f ops/s\n", starved)
			fmt.Printf("  boosted supervisor: %8.0f ops/s  (+%.0f%%)\n", boosted, 100*(boosted-starved)/starved)
		case "scenarios":
			mid := sc.Clients[len(sc.Clients)/2]
			out, err := experiment.RunScenarios(sc, mid, progress)
			if err != nil {
				fatalf("scenarios: %v", err)
			}
			fmt.Println()
			fmt.Println("Server-role comparison (§2 roles; related work expects auth most expensive):")
			for _, name := range []string{"registration", "redirect", "proxy", "proxy+auth"} {
				fmt.Printf("  %-12s %8.0f ops/s\n", name, out[name])
			}
		case "loss":
			mid := sc.Clients[len(sc.Clients)/2]
			rates := []float64{0, 0.02, 0.05, 0.10}
			out, err := experiment.RunLoss(sc, mid, rates, progress)
			if err != nil {
				fatalf("loss: %v", err)
			}
			fmt.Println()
			fmt.Println("Datagram loss sweep (stateful UDP proxy; calls complete via retransmission):")
			for _, r := range rates {
				res := out[r]
				fmt.Printf("  %4.0f%% loss: %8.0f ops/s  (%d rtx, %d failed)\n",
					100*r, res.Throughput, res.Retransmits, res.CallsFailed)
			}
		case "stages":
			mid := sc.Clients[len(sc.Clients)/2]
			cells, err := experiment.RunStages(sc, mid, progress)
			if err != nil {
				fatalf("stages: %v", err)
			}
			fmt.Println()
			fmt.Printf("Per-stage latency percentiles (%d clients; Figures 4/5 as distributions):\n", mid)
			fmt.Print(experiment.StageTable(cells))
			if len(cells) > 0 {
				last := cells[len(cells)-1]
				fmt.Println()
				fmt.Printf("Run timeline, %s (per-interval ops/s and stage P99):\n", last.Name)
				fmt.Print(last.Series.Table("proxy.messages", last.Series.ActiveStages(experiment.SeriesStages())))
			}
			if *md {
				fmt.Println()
				fmt.Print(experiment.StageMarkdown(cells))
			}
		case "arch":
			mid := sc.Clients[len(sc.Clients)/2]
			out, err := experiment.RunArchitectures(sc, mid,
				experiment.Workload{Name: "TCP persistent", Transport: transport.TCP}, progress)
			if err != nil {
				fatalf("arch: %v", err)
			}
			fmt.Println()
			fmt.Println("Architecture comparison (§6 discussion, TCP persistent workload):")
			for _, name := range []string{"TCP fixed (fdcache+pq)", "Threaded (§6)", "SCTP-sim (§6)", "UDP"} {
				fmt.Printf("  %-24s %8.0f ops/s\n", name, out[name])
			}
		case "transports":
			rep, err := experiment.RunTransports(sc, progress)
			if err != nil {
				fatalf("transports: %v", err)
			}
			fmt.Println()
			fmt.Print(rep.Table())
			if *md {
				fmt.Println()
				fmt.Print(rep.Markdown())
			}
		case "overload":
			osc := experiment.DefaultOverloadScale()
			if *clients != "" {
				osc.Pairs = sc.Clients
			}
			if *calls > 0 {
				osc.CallsPerCaller = *calls
			}
			if *workers > 0 {
				osc.Workers = *workers
			}
			rep, err := experiment.RunOverload(osc, progress)
			if err != nil {
				fatalf("overload: %v", err)
			}
			fmt.Println()
			fmt.Print(rep.Table())
			if *md {
				fmt.Print(rep.Markdown())
			}
		case "batching":
			bsc := experiment.DefaultBatchingScale()
			if *clients != "" {
				bsc.Pairs = sc.Clients
			}
			if *calls > 0 {
				bsc.CallsPerCaller = *calls
			}
			if *workers > 0 {
				bsc.Workers = *workers
			}
			rep, err := experiment.RunBatching(bsc, progress)
			if err != nil {
				fatalf("batching: %v", err)
			}
			fmt.Println()
			fmt.Print(rep.Table())
			if *md {
				fmt.Print(rep.Markdown())
			}
		case "locks":
			lsc := experiment.DefaultLocksScale()
			if *clients != "" {
				lsc.Pairs = sc.Clients
			}
			if *calls > 0 {
				lsc.CallsPerCaller = *calls
			}
			if *workers > 0 {
				lsc.Workers = *workers
			}
			rep, err := experiment.RunLocks(lsc, progress)
			if err != nil {
				fatalf("locks: %v", err)
			}
			fmt.Println()
			fmt.Print(rep.Table())
			if *md {
				fmt.Print(rep.Markdown())
			}
		case "outliers":
			osc := experiment.DefaultOutlierScale()
			if *clients != "" {
				osc.Pairs = sc.Clients[len(sc.Clients)/2]
			}
			if *calls > 0 {
				osc.CallsPerCaller = *calls
			}
			if *workers > 0 {
				osc.Workers = *workers
			}
			rep, err := experiment.RunOutliers(osc, progress)
			if err != nil {
				fatalf("outliers: %v", err)
			}
			fmt.Println()
			fmt.Print(rep.Table())
			if *md {
				fmt.Print(rep.Markdown())
			}
		case "register":
			rsc := experiment.DefaultRegisterScale()
			if *clients != "" {
				rsc.Phones = sc.Clients
			}
			if *calls > 0 {
				rsc.RegistersPerPhone = *calls
			}
			if *workers > 0 {
				rsc.Workers = *workers
			}
			if *prefill > 0 {
				rsc.Prefill = *prefill
			}
			rep, err := experiment.RunRegister(rsc, progress)
			if err != nil {
				fatalf("register: %v", err)
			}
			fmt.Println()
			fmt.Print(rep.Table())
			if *md {
				fmt.Print(rep.Markdown())
			}
		default:
			fatalf("unknown experiment %q", f)
		}
	}
	fmt.Fprintf(os.Stderr, "\ntotal experiment time: %v\n", time.Since(start).Round(time.Second))
}

func runFigure(f func(experiment.Scale, func(string)) (*experiment.Figure, error), sc experiment.Scale, progress func(string), md bool) {
	fig, err := f(sc, progress)
	if err != nil {
		fatalf("figure: %v", err)
	}
	fmt.Println()
	fmt.Print(fig.Chart())
	fmt.Println()
	fmt.Print(fig.Table())
	lo, hi := fig.TCPOfUDPRange()
	fmt.Printf("TCP as %% of UDP across the matrix: %.0f%%–%.0f%%\n", lo, hi)
	maxClients := sc.Clients[len(sc.Clients)-1]
	for _, name := range []string{"TCP persistent", "UDP"} {
		c := fig.CellFor(name, maxClients)
		if c == nil || len(c.Series.Samples) == 0 {
			continue
		}
		fmt.Println()
		fmt.Printf("Run timeline, %s @ %d clients (per-interval ops/s and stage P99):\n", name, maxClients)
		fmt.Print(c.SeriesTable())
	}
	if md {
		fmt.Println()
		fmt.Print(fig.Markdown())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sipexperiment: "+format+"\n", args...)
	os.Exit(1)
}
