package experiment

import (
	"strings"
	"testing"
	"time"

	"gosip/internal/core"
	"gosip/internal/ipc"
)

// TestRunOutliersSmoke runs the tail-explanation sweep with a shorter query
// and a lower retain threshold, and checks the property the figure exists
// to demonstrate: every cell retains at least one slow call whose span
// timeline accounts for its end-to-end latency.
func TestRunOutliersSmoke(t *testing.T) {
	s := *outliers
	s.Server = func(c *core.Config) {
		outliers.Server(c)
		c.DB.LookupLatency = 3 * time.Millisecond
		c.Trace.Slow, c.Trace.Ring = 8*time.Millisecond, 128
	}
	r, err := Run(&s, Env{Loads: []int{4}, Calls: 4, Workers: 2, IPC: ipc.ModeChan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range s.Rows {
		c := &r.Cells[i][0]
		if c.Result.CallsCompleted == 0 {
			t.Errorf("%s: no calls completed: %+v", row.Name, c.Result)
		}
		if retained, slow := c.Snapshot.Counters["trace.retained"], c.Snapshot.Gauges[gaugeSlowRetained]; retained == 0 || slow == 0 {
			t.Errorf("%s: recorder retained=%d slow=%.0f, want both > 0", row.Name, retained, slow)
		}
		note := r.Notes[i][0]
		if !strings.HasPrefix(note, "exemplar (slow,") {
			t.Errorf("%s: exemplar is not a slow call:\n%s", row.Name, note)
		}
		e2e, acc := c.Snapshot.Gauges[gaugeExemplarE2E], c.Snapshot.Gauges[gaugeExemplarAccounted]
		if d := acc - e2e; e2e <= 0 || d > e2e/10 || -d > e2e/10 {
			t.Errorf("%s: exemplar timeline inconsistent: e2e=%v accounted=%v", row.Name, time.Duration(e2e), time.Duration(acc))
		}
	}
	out := r.Table()
	for _, want := range []string{"Explaining the tail", "exemplar e2e", "accounted=", "threaded @ 4 clients"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if md := r.Markdown(); !strings.Contains(md, "| row |") || !strings.Contains(md, "```") {
		t.Errorf("markdown malformed:\n%s", md)
	}
}
