//go:build linux

package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"
)

// buildProxy compiles cmd/sipproxyd into the test's temporary directory.
func buildProxy(t *testing.T) string {
	t.Helper()
	e, err := findEnv()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "sipproxyd")
	if err := e.goBuild(context.Background(), bin, "./cmd/sipproxyd"); err != nil {
		t.Fatal(err)
	}
	return bin
}

// One short traced round of every workload against the real sipproxyd:
// every op must pass the output check, and the span file must be whole.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts sipproxyd six times")
	}
	bin := buildProxy(t)
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			r, err := runRound(ctx, bin, roundOpts{wl: wl, seed: 42, warm: 100 * time.Millisecond,
				measure: 500 * time.Millisecond, traced: true, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if r.Invalid != "" {
				t.Fatalf("round invalid: %s", r.Invalid)
			}
			if r.FailRatio != 0 || r.Failed != 0 {
				t.Errorf("fail_ratio %v (%v), want 0", r.FailRatio, r.FailedBy)
			}
			if ops := r.OpsPerS * r.Seconds; ops <= 0 || r.Attempted <= 0 {
				t.Errorf("ops %v, attempted %d: nothing completed", ops, r.Attempted)
			}
			for _, d := range endToEnd {
				if v := r.endToEndValue(d.Name); !(v > 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}
			calls, err := writeTrace(filepath.Join(t.TempDir(), "trace.json"), wl, r)
			if err != nil {
				t.Error(err) // includes a child span outside its parent
			}
			if calls == 0 {
				t.Error("the traced round recorded no whole call")
			}
		})
	}
}

// Every way out of a session must take the child and the parked sockets
// with it.
func TestSessionCloseReapsServerAndSockets(t *testing.T) {
	if testing.Short() {
		t.Skip("starts sipproxyd")
	}
	bin := buildProxy(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, _, err := setUp(ctx, bin, roundOpts{wl: findWorkload("tcp.churn"), seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pid := s.srv.cmd.Process.Pid
	if len(s.gen.parked) != parkedConns {
		t.Errorf("parked %d connections, want %d", len(s.gen.parked), parkedConns)
	}
	s.close()
	if s.srv.alive() {
		t.Error("server still running after close")
	}
	if err := syscall.Kill(pid, 0); err == nil {
		t.Errorf("pid %d still exists after close: the child was not reaped", pid)
	}
	if _, err := s.gen.parked[0].Write([]byte("x")); err == nil {
		t.Error("a parked socket is still open after close")
	}

	// Cancelling the context (what SIGINT does) kills a child on its own.
	s2, _, err := setUp(ctx, bin, roundOpts{wl: findWorkload("udp.calls"), seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.close()
	cancel()
	select {
	case <-s2.srv.exited:
	case <-time.After(5 * time.Second):
		t.Error("server survived the cancellation of its context")
	}
}

// BENCHMARK.json repeats the tables in workload.go and metrics.go for the
// harness that drives `bench -workload`; they must not drift apart.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	e, err := findEnv()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	type nameWhy struct{ Name, Why string }
	var got, want []nameWhy
	for _, w := range doc.Workloads {
		got = append(got, nameWhy(w))
	}
	for _, w := range workloads {
		want = append(want, nameWhy{w.name, w.why})
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads\n%+v\ntable\n%+v", got, want)
	}
	strip := func(ds []metricDef) []metricDef {
		out := append([]metricDef(nil), ds...)
		for i := range out {
			out[i].AbsBound = 0 // -compare only; not part of BENCHMARK.json
		}
		return out
	}
	if !reflect.DeepEqual(doc.EndToEnd, strip(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\ntable\n%+v", doc.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%+v\ntable\n%+v", doc.PerLayer, perLayer)
	}
}
