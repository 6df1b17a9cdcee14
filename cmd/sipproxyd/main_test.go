package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/trace"
	"gosip/internal/transport"
)

// TestMain runs the daemon itself when a test re-executes this binary with
// asDaemonEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(asDaemonEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

const asDaemonEnv = "SIPPROXYD_TEST_AS_DAEMON"

// TestStrayArgumentRejected pins that a word which is not a flag stops the
// daemon. flag.Parse stops at it, so "-arch tcp fdcache -connmgr pqueue"
// would otherwise start a Figure 3 server with no fd cache and the scan
// manager, ignoring everything after "fdcache".
func TestStrayArgumentRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-addr", "127.0.0.1:0", "-users", "1", "-arch", "tcp", "fdcache", "-connmgr", "pqueue")
	cmd.Env = append(os.Environ(), asDaemonEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("daemon ended with %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `"fdcache"`) {
		t.Errorf("the error does not name the stray argument:\n%s", out)
	}
}

// TestMetricsEndpointSmoke boots a proxy with a metrics listener, drives a
// little real traffic through it, and validates the exposed surfaces: that
// /metrics parses as Prometheus text exposition format and includes the
// per-stage histograms, and that /profile and /debug/pprof/ respond.
func TestMetricsEndpointSmoke(t *testing.T) {
	srv, err := core.New(core.Config{
		Arch:     core.ArchUDP,
		Addr:     "127.0.0.1:0",
		Workers:  2,
		Stateful: true,
		Domain:   "metrics.gosip",
		// Head-sample every call so /trace.json has traces to serve.
		Trace: trace.Config{Sample: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.DB().ProvisionN(8, "metrics.gosip")

	hs, bound, err := startMetrics("127.0.0.1:0", srv.Profile(), srv.Tracer())
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	base := "http://" + bound.String()

	if _, err := loadgen.Run(loadgen.Config{
		Transport:       transport.UDP,
		ProxyAddr:       srv.Addr(),
		Domain:          "metrics.gosip",
		Pairs:           2,
		CallsPerCaller:  3,
		ResponseTimeout: 5 * time.Second,
	}); err != nil {
		t.Fatalf("loadgen: %v", err)
	}

	body := mustGet(t, base+"/metrics")
	validatePrometheusText(t, body)
	for _, want := range []string{
		"gosip_stage_parse_seconds_bucket{le=\"+Inf\"}",
		"gosip_stage_process_seconds_count",
		"gosip_stage_send_seconds_sum",
		"gosip_proxy_messages_total",
		// Registered but never fired under UDP: must still be exposed.
		"gosip_stage_fd_ipc_seconds_count 0",
		"gosip_fdcache_hits_total 0",
		"gosip_udp_resolve_hits_total",
		"gosip_goroutines",
		"gosip_build_info{",
		"gosip_process_start_time_seconds",
		"gosip_trace_retained_total",
		"gosip_trace_dropped_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Traffic ran, so the per-stage histograms must be non-empty.
	if m := regexp.MustCompile(`(?m)^gosip_stage_parse_seconds_count (\d+)$`).FindStringSubmatch(body); m == nil || m[1] == "0" {
		t.Errorf("stage.parse histogram empty after traffic: %v", m)
	}

	profile := mustGet(t, base+"/profile")
	for _, want := range []string{"profile (busy=", "stage latency percentiles:", "stage.parse"} {
		if !strings.Contains(profile, want) {
			t.Errorf("/profile missing %q", want)
		}
	}

	pprofIdx := mustGet(t, base+"/debug/pprof/")
	if !strings.Contains(pprofIdx, "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong: %.80s", pprofIdx)
	}

	// The flight recorder rides the same mux: the human view names the
	// recorder, and /trace.json parses with at least one retained trace
	// (every call is head-sampled above) whose spans are populated.
	traceTxt := mustGet(t, base+"/trace")
	if !strings.Contains(traceTxt, "flight recorder:") {
		t.Errorf("/trace missing header: %.120s", traceTxt)
	}
	var tj struct {
		Enabled bool `json:"enabled"`
		Count   int  `json:"count"`
		Traces  []struct {
			CallID string `json:"call_id"`
			Method string `json:"method"`
			E2E    int64  `json:"e2e_ns"`
			Spans  []struct {
				Stage string `json:"stage"`
				DurNs int64  `json:"dur_ns"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, base+"/trace.json")), &tj); err != nil {
		t.Fatalf("/trace.json: %v", err)
	}
	if !tj.Enabled || tj.Count == 0 || len(tj.Traces) == 0 {
		t.Fatalf("/trace.json has no traces: enabled=%v count=%d", tj.Enabled, tj.Count)
	}
	tr := tj.Traces[0]
	if tr.CallID == "" || tr.Method == "" || tr.E2E <= 0 || len(tr.Spans) == 0 {
		t.Errorf("retained trace looks empty: %+v", tr)
	}
}

func mustGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(b)
}

var (
	promMetricRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)$`)
)

// validatePrometheusText checks the body against the text exposition
// format: every line is a HELP/TYPE comment or a sample; TYPE precedes the
// family's samples; histogram families carry le-labelled buckets, _sum and
// _count; cumulative bucket counts are monotone with le.
func validatePrometheusText(t *testing.T, body string) {
	t.Helper()
	types := map[string]string{}
	sampleSeen := map[string]bool{}
	histBuckets := map[string][]float64{} // family -> cumulative counts in order
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) {
			t.Fatalf("line %d %q: %s", ln+1, line, fmt.Sprintf(format, args...))
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				fail("malformed comment")
			}
			if !promMetricRe.MatchString(parts[2]) {
				fail("bad metric name %q", parts[2])
			}
			if parts[1] == "TYPE" {
				if sampleSeen[parts[2]] {
					fail("TYPE after samples for %s", parts[2])
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					fail("bad type %q", parts[3])
				}
				types[parts[2]] = parts[3]
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			fail("not a valid sample line")
		}
		name := m[1]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
			}
		}
		if _, ok := types[family]; !ok {
			fail("sample without TYPE declaration (family %s)", family)
		}
		sampleSeen[family] = true
		if types[family] == "histogram" && strings.HasSuffix(name, "_bucket") {
			if !strings.Contains(m[2], "le=") {
				fail("histogram bucket without le label")
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				fail("bad bucket count: %v", err)
			}
			prev := histBuckets[family]
			if len(prev) > 0 && v < prev[len(prev)-1] {
				fail("bucket counts not cumulative")
			}
			histBuckets[family] = append(prev, v)
		}
	}
	if len(types) == 0 {
		t.Fatal("no metric families found")
	}
	for fam, typ := range types {
		if typ == "histogram" && len(histBuckets[fam]) == 0 {
			t.Errorf("histogram family %s has no buckets", fam)
		}
	}
}
