//go:build linux

package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	timedRounds   = 3
	tracedSeconds = 4
	warmUp        = time.Second
)

// summary is an end-to-end metric over a workload's timed rounds.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	IQR    float64   `json:"iqr"` // q3-q1, the quartile spread
	Rounds []float64 `json:"rounds"`
	Unit   string    `json:"unit"`
}

func summarize(xs []float64, unit string) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Median: q2, Q1: q1, Q3: q3, IQR: q3 - q1, Rounds: xs, Unit: unit}
}

// workloadReport is one workload's part of the ledger.
type workloadReport struct {
	Why     string   `json:"why"`
	Flags   []string `json:"server_flags"`
	Invalid string   `json:"invalid,omitempty"` // set: the numbers below are absent

	EndToEnd     map[string]summary `json:"end_to_end,omitempty"`        // at nominal machine speed
	Raw          measured           `json:"raw"`                         // medians as the clocks read
	MachineSpeed summary            `json:"machine_speed"`               // nominal generator CPU per op ÷ measured
	GenCPUUsOp   float64            `json:"gen_cpu_us_per_op,omitempty"` // median; the speed reference
	NominalGenUs float64            `json:"nominal_gen_cpu_us_per_op"`   // what machine_speed 1.0 means here
	LatSamples   []int              `json:"lat_samples_per_round,omitempty"`
	P99Beyond    int                `json:"lat_p99_samples_beyond,omitempty"` // fewest over the rounds; ≥ 10 wanted
	LatP999Us    float64            `json:"lat_p999_us,omitempty"`            // printed, not gated
	LatMaxUs     float64            `json:"lat_max_us,omitempty"`             // printed, not gated
	GenCPUShare  float64            `json:"gen_cpu_share,omitempty"`
	FailedBy     map[string]int     `json:"failed_by,omitempty"`
	PerLayer     values             `json:"per_layer"`
	Budget       []budgetRow        `json:"cpu_budget"`
	LayersStatus string             `json:"layers"`
	TraceFile    string             `json:"trace_file,omitempty"`
	TraceCalls   int                `json:"trace_calls,omitempty"`
}

// ledger is the one JSON document `go run ./bench` prints.
type ledger struct {
	Header struct {
		NProc        int    `json:"nproc"`
		Kernel       string `json:"kernel"`
		Go           string `json:"go"`
		Commit       string `json:"commit"`
		Seed         uint64 `json:"seed"`
		Network      string `json:"network"`
		Load         string `json:"load"`
		Rounds       int    `json:"timed_rounds"`
		RoundSeconds int    `json:"round_seconds"`
		WarmUpS      int    `json:"warm_up_seconds"`
		TracedS      int    `json:"traced_round_seconds"`
	} `json:"header"`
	Metrics   []metricDef                `json:"end_to_end_metrics"`
	Workloads map[string]*workloadReport `json:"workloads"`
	// TCPPctOfUDP is the paper's headline, from the rows above: ops_per_s
	// of each stream variant over udp.calls, in percent.
	TCPPctOfUDP map[string]*float64 `json:"tcp_pct_of_udp"`
}

func firstLine(cmd *exec.Cmd) string {
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(strings.SplitN(string(out), "\n", 2)[0])
}

func (e *env) newLedger(seed uint64, seconds int) *ledger {
	l := &ledger{Metrics: append(append([]metricDef(nil), endToEnd...), failRatio),
		Workloads: map[string]*workloadReport{}, TCPPctOfUDP: map[string]*float64{}}
	h := &l.Header
	h.NProc, h.Go, h.Seed = runtime.NumCPU(), runtime.Version(), seed
	h.Kernel = firstLine(exec.Command("uname", "-sr"))
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = e.root
	h.Commit = firstLine(git)
	h.Network = "loopback only: no real link was crossed"
	h.Load = fmt.Sprintf("closed loop, %d calls in flight from one generator process", inFlight)
	h.Rounds, h.RoundSeconds, h.WarmUpS, h.TracedS = timedRounds, seconds, int(warmUp/time.Second), tracedSeconds
	return l
}

func progress(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// tracedRound runs one traced round plus the layer probes and files the
// per-layer numbers into rep.
func (e *env) tracedRound(ctx context.Context, probe *layerProbe, wl *workload, seed uint64, seconds int, rep *workloadReport) (*roundResult, error) {
	r, err := runRound(ctx, e.proxyBin, roundOpts{wl: wl, seed: seed, warm: warmUp,
		measure: time.Duration(seconds) * time.Second, traced: true, setups: 1})
	if err != nil {
		return nil, err
	}
	if r.Invalid != "" {
		rep.LayersStatus = "traced round invalid: " + r.Invalid
		return r, nil
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	rep.TraceFile = filepath.Join("bench", "out", "trace-"+wl.name+".json")
	if rep.TraceCalls, err = writeTrace(filepath.Join(e.root, rep.TraceFile), wl, r); err != nil {
		return nil, err
	}
	probes, why := probe.run(ctx, buildFlow(wl, seed), filepath.Join(e.outDir, "trace-layers-"+wl.name+".json"))
	rep.LayersStatus = "ok"
	if why != "" {
		rep.LayersStatus = "unavailable (" + why + ")"
		progress("layers: %s", rep.LayersStatus)
	}
	rep.PerLayer, rep.Budget = layerValues(wl, r, probes)
	return r, nil
}

// runLedger measures every workload: timed rounds interleaved round-robin
// so that machine drift falls on all workloads alike, then a traced round
// each.
func (e *env) runLedger(ctx context.Context, seed uint64, seconds int) (*ledger, error) {
	l := e.newLedger(seed, seconds)
	probe := e.buildLayers(ctx)
	rounds := map[string][]*roundResult{}
	for i := range workloads {
		wl := &workloads[i]
		l.Workloads[wl.name] = &workloadReport{Why: wl.why, Flags: wl.flags}
	}
	for round := 0; round < timedRounds; round++ {
		for i := range workloads {
			wl := &workloads[i]
			rep := l.Workloads[wl.name]
			if rep.Invalid != "" {
				continue
			}
			r, err := runRound(ctx, e.proxyBin, roundOpts{wl: wl, seed: seed, warm: warmUp,
				measure: time.Duration(seconds) * time.Second, setups: 1})
			if err != nil {
				return nil, err
			}
			progress("%-20s round %d: %8.0f ops/s  %6.1f us cpu/op  p50 %6.0f us  p99 %6.0f us  rss %5.0f MB  (machine_speed %.2f)  failed %d/%d",
				wl.name, round+1, r.OpsPerS, r.CPUUsPerOp, r.LatP50Us, r.LatP99Us, r.ServerRSSMB, r.Speed, r.Failed, r.Attempted)
			if r.Invalid != "" {
				rep.Invalid = r.Invalid
				progress("%s: invalid: %s", wl.name, r.Invalid)
				continue
			}
			rounds[wl.name] = append(rounds[wl.name], r)
		}
	}
	for i := range workloads {
		wl := &workloads[i]
		rep := l.Workloads[wl.name]
		if rep.Invalid != "" {
			continue
		}
		rs := rounds[wl.name]
		rep.EndToEnd, rep.FailedBy, rep.P99Beyond = map[string]summary{}, map[string]int{}, -1
		// column is one number of every timed round, in round order.
		column := func(f func(*roundResult) float64) []float64 {
			xs := make([]float64, len(rs))
			for j, r := range rs {
				xs[j] = f(r)
			}
			return xs
		}
		over := func(f func(*roundResult) float64) float64 { return median(column(f)) }
		for _, d := range l.Metrics {
			rep.EndToEnd[d.Name] = summarize(column(func(r *roundResult) float64 { return r.endToEndValue(d.Name) }), d.Unit)
		}
		for _, r := range rs {
			rep.LatSamples = append(rep.LatSamples, r.Samples)
			if b := beyond(r.Samples, 0.99); rep.P99Beyond < 0 || b < rep.P99Beyond {
				rep.P99Beyond = b
			}
			rep.LatMaxUs = max(rep.LatMaxUs, r.LatMaxUs)
			for why, n := range r.FailedBy {
				rep.FailedBy[why] += n
			}
		}
		rep.GenCPUShare = over(func(r *roundResult) float64 { return r.GenCPUShare })
		rep.LatP999Us = over(func(r *roundResult) float64 { return r.LatP999Us })
		rep.Raw = measured{
			OpsPerS:     over(func(r *roundResult) float64 { return r.Raw.OpsPerS }),
			CPUUsPerOp:  over(func(r *roundResult) float64 { return r.Raw.CPUUsPerOp }),
			LatP50Us:    over(func(r *roundResult) float64 { return r.Raw.LatP50Us }),
			LatP99Us:    over(func(r *roundResult) float64 { return r.Raw.LatP99Us }),
			ServerRSSMB: over(func(r *roundResult) float64 { return r.Raw.ServerRSSMB }),
		}
		rep.MachineSpeed, rep.NominalGenUs = summarize(column(func(r *roundResult) float64 { return r.Speed }), "ratio"), wl.genUs
		rep.GenCPUUsOp = over(func(r *roundResult) float64 { return r.GenCPUUsPerOp })
		if rep.GenCPUShare > 0.5 {
			progress("warning: %s: the generator used %.0f%% of the CPU; the numbers measure it more than the proxy",
				wl.name, rep.GenCPUShare*100)
		}
		if _, err := e.tracedRound(ctx, probe, wl, seed, tracedSeconds, rep); err != nil {
			return nil, err
		}
	}
	if udp := l.Workloads["udp.calls"]; udp.Invalid == "" {
		base := udp.EndToEnd["ops_per_s"].Median
		for _, name := range []string{"tcp.baseline", "tcp.persistent", "threaded.persistent"} {
			l.TCPPctOfUDP[name] = nil
			if w := l.Workloads[name]; w.Invalid == "" && base > 0 {
				l.TCPPctOfUDP[name] = ptr(100 * w.EndToEnd["ops_per_s"].Median / base)
			}
		}
	}
	return l, nil
}
