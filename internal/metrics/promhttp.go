package metrics

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// The exporter renders a Snapshot in the Prometheus text exposition
// format. Names are sanitized (dots → underscores) and prefixed with
// "gosip_"; counters become `_total`, timers a `_seconds_total`/
// `_calls_total` pair, and histograms full Prometheus histograms whose
// `le` bounds are the log₂ bucket edges in seconds. Because profiles
// pre-register the standard name set (RegisterStandard), every metric the
// server can emit appears from the first scrape, at zero if never fired.

// promName sanitizes a dotted metric name into a Prometheus identifier.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("gosip_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the snapshot in text exposition format.
func WritePrometheus(w io.Writer, s Snapshot) {
	fmt.Fprintf(w, "# HELP gosip_uptime_seconds Wall time covered by this profile.\n")
	fmt.Fprintf(w, "# TYPE gosip_uptime_seconds gauge\n")
	fmt.Fprintf(w, "gosip_uptime_seconds %g\n", s.Wall.Seconds())

	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name) + "_total"
		fmt.Fprintf(w, "# HELP %s Cumulative count of %s events.\n", pn, name)
		fmt.Fprintf(w, "# TYPE %s counter\n", pn)
		fmt.Fprintf(w, "%s %d\n", pn, s.Counters[name])
	}

	for _, name := range sortedKeys(s.Timers) {
		t := s.Timers[name]
		sn := promName(name) + "_seconds_total"
		fmt.Fprintf(w, "# HELP %s Cumulative time spent in %s.\n", sn, name)
		fmt.Fprintf(w, "# TYPE %s counter\n", sn)
		fmt.Fprintf(w, "%s %g\n", sn, t.Total.Seconds())
		cn := promName(name) + "_calls_total"
		fmt.Fprintf(w, "# HELP %s Number of %s intervals recorded.\n", cn, name)
		fmt.Fprintf(w, "# TYPE %s counter\n", cn)
		fmt.Fprintf(w, "%s %d\n", cn, t.Count)
	}

	for _, name := range sortedKeys(s.Histograms) {
		writePromHistogram(w, name, s.Histograms[name])
	}

	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(w, "# HELP %s Current value of %s.\n", pn, name)
		fmt.Fprintf(w, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(w, "%s %g\n", pn, s.Gauges[name])
	}
}

// writePromHistogram emits one histogram family. Empty log₂ buckets are
// skipped (cumulative counts are unaffected), keeping the exposition
// compact; the +Inf bucket is always present.
func writePromHistogram(w io.Writer, name string, h HistogramSnapshot) {
	pn := promName(name) + "_seconds"
	fmt.Fprintf(w, "# HELP %s Latency distribution of %s.\n", pn, name)
	fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
	cum := int64(0)
	for i := 0; i < NumBuckets-1; i++ {
		n := h.Buckets[i]
		cum += n
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", pn, BucketUpper(i).Seconds(), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
	fmt.Fprintf(w, "%s_sum %g\n", pn, h.Sum.Seconds())
	fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
}

// runtimeGauges appends process-level health so /metrics is useful even
// before traffic arrives.
func runtimeGauges(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP gosip_goroutines Current goroutine count.\n")
	fmt.Fprintf(w, "# TYPE gosip_goroutines gauge\n")
	fmt.Fprintf(w, "gosip_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP gosip_heap_alloc_bytes Bytes of allocated heap objects.\n")
	fmt.Fprintf(w, "# TYPE gosip_heap_alloc_bytes gauge\n")
	fmt.Fprintf(w, "gosip_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP gosip_gc_total Completed GC cycles.\n")
	fmt.Fprintf(w, "# TYPE gosip_gc_total counter\n")
	fmt.Fprintf(w, "gosip_gc_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "# HELP gosip_gc_pause_seconds_total Cumulative GC stop-the-world pause.\n")
	fmt.Fprintf(w, "# TYPE gosip_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "gosip_gc_pause_seconds_total %g\n", time.Duration(ms.PauseTotalNs).Seconds())
}

// buildInfoGauges emits the immutable facts of the running binary —
// module version, Go toolchain, GOMAXPROCS — as a constant-1 info metric,
// plus the profile's start instant. Together they let a scrape from a long
// sweep detect both restarts and binary changes.
func buildInfoGauges(w io.Writer, p *Profile) {
	version := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				version = s.Value[:12]
			}
		}
	}
	fmt.Fprintf(w, "# HELP gosip_build_info Build facts of the running binary (value is always 1).\n")
	fmt.Fprintf(w, "# TYPE gosip_build_info gauge\n")
	fmt.Fprintf(w, "gosip_build_info{version=%q,goversion=%q,gomaxprocs=\"%d\"} 1\n",
		version, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# HELP gosip_process_start_time_seconds Unix time the profile (server run) started.\n")
	fmt.Fprintf(w, "# TYPE gosip_process_start_time_seconds gauge\n")
	fmt.Fprintf(w, "gosip_process_start_time_seconds %g\n", float64(p.StartedAt().UnixNano())/1e9)
}

// Handler serves the profile as Prometheus text at every request.
func Handler(p *Profile) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, p.Snapshot())
		runtimeGauges(w)
		buildInfoGauges(w, p)
	})
}

// NewServeMux builds the live-introspection mux for a running daemon:
//
//	/metrics      Prometheus text exposition
//	/profile      the human-readable flat report + per-stage percentiles
//	/debug/pprof  the standard Go profiler endpoints
func NewServeMux(p *Profile) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(p))
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap := p.Snapshot()
		io.WriteString(w, snap.Report(0))
		if stages := StageSummary(snap); stages != "" {
			io.WriteString(w, "stage latency percentiles:\n")
			io.WriteString(w, stages)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
