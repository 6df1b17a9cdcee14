//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef names one reported number. The tables below are the single
// source: BENCHMARK.json repeats them (a test holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the base median a change may lose; end-to-end only
	// AbsBound widens Bound for small bases: a change is within bound while
	// it is within either. Used by -compare only.
	AbsBound float64 `json:"abs_bound,omitempty"`
}

// endToEnd are the gated metrics, per workload. The bounds are three times
// the widest run-to-run spread measured when the benchmark was defined,
// capped at 0.25 (README.md, "Bounds"). fail_ratio is the seventh: it is 0
// on a healthy run, so it cannot be a ratio-gated metric in BENCHMARK.json
// and travels as attempted/failed there; -compare gates it on an absolute
// bound.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, AbsBound: 0.2},
}

var failRatio = metricDef{Name: "fail_ratio", Unit: "ratio", Better: "lower", AbsBound: 0.001}

// value is the machine-speed-dependent metric called name, if it is one.
func (m measured) value(name string) (float64, bool) {
	switch name {
	case "ops_per_s":
		return m.OpsPerS, true
	case "cpu_us_per_op":
		return m.CPUUsPerOp, true
	case "lat_p50_us":
		return m.LatP50Us, true
	case "lat_p99_us":
		return m.LatP99Us, true
	case "server_rss_mb":
		return m.ServerRSSMB, true
	}
	return 0, false
}

func (r *roundResult) endToEndValue(name string) float64 {
	if v, ok := r.measured.value(name); ok {
		return v
	}
	switch name {
	case "setup_s":
		return r.SetupS
	case "fail_ratio":
		return r.FailRatio
	}
	panic("no end-to-end metric " + name) // the tables above are the only callers
}

// perLayer are attribution, never gated. Each is named layer.metric, the
// layer being the module under internal/ (gen: the generator's own spans).
var perLayer = []metricDef{
	{Name: "sipmsg.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "sipmsg.serialize_ns", Unit: "ns", Better: "lower"},
	{Name: "sipmsg.frame_ns", Unit: "ns", Better: "lower"},
	{Name: "sipmsg.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "transport.udp_send_recv_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.udp_msgs_per_syscall", Unit: "ratio", Better: "higher"},
	{Name: "transport.stream_write_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_msgs_per_write", Unit: "ratio", Better: "higher"},
	{Name: "ipc.fd_request_ns", Unit: "ns", Better: "lower"},
	{Name: "ipc.fd_requests_per_op", Unit: "1/op", Better: "lower"},
	{Name: "fdcache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "fdcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "conn.insert_remove_ns", Unit: "ns", Better: "lower"},
	{Name: "conn.conns_accepted_per_op", Unit: "1/op", Better: "lower"},
	{Name: "connmgr.touch_ns", Unit: "ns", Better: "lower"},
	{Name: "connmgr.expired_ns", Unit: "ns", Better: "lower"},
	{Name: "connmgr.scan_visits_per_op", Unit: "1/op", Better: "lower"},
	{Name: "transaction.create_match_ns", Unit: "ns", Better: "lower"},
	{Name: "transaction.txn_lock_wait_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "transaction.retransmits_per_op", Unit: "1/op", Better: "lower"},
	{Name: "timerlist.schedule_cancel_ns", Unit: "ns", Better: "lower"},
	{Name: "timerlist.resident_timers", Unit: "count", Better: "lower"},
	{Name: "location.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "location.register_ns", Unit: "ns", Better: "lower"},
	{Name: "userdb.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "userdb.lookups_per_op", Unit: "1/op", Better: "lower"},
	{Name: "proxy.digest_ns", Unit: "ns", Better: "lower"},
	{Name: "proxy.auth_challenges_per_op", Unit: "1/op", Better: "lower"},
	{Name: "proxy.handle_ns", Unit: "ns", Better: "lower"},
	{Name: "core.residual_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.budget_coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "gen.proxy_fwd_request_us", Unit: "us", Better: "lower"},
	{Name: "gen.proxy_fwd_response_us", Unit: "us", Better: "lower"},
}

// budgetRow is one disjoint share of the server's CPU per op.
type budgetRow struct {
	Layer      string   `json:"layer"`
	NsPerCall  *float64 `json:"ns_per_call"`
	CallsPerOp *float64 `json:"calls_per_op"`
	UsPerOp    *float64 `json:"us_per_op"`
}

// values holds numbers that may be missing: a counter that no longer
// exists or a probe that did not run reads as null, not as an error.
type values map[string]*float64

func (v values) set(name string, x float64) { v[name] = &x }

func ratio(num, den *float64) *float64 {
	if num == nil || den == nil || *den == 0 {
		return nil
	}
	x := *num / *den
	return &x
}

func sum(xs ...*float64) *float64 {
	t := 0.0
	for _, x := range xs {
		if x == nil {
			return nil
		}
		t += *x
	}
	return &t
}

func times(xs ...*float64) *float64 {
	t := 1.0
	for _, x := range xs {
		if x == nil {
			return nil
		}
		t *= *x
	}
	return &t
}

// layerValues turns a traced round, its counter deltas and the probe's
// output into the per-layer metrics and the CPU budget.
func layerValues(wl *workload, r *roundResult, probes map[string]layerResult) (values, []budgetRow) {
	v := values{}
	probe := func(name string) *float64 {
		if p, ok := probes[name]; ok {
			return &p.NsPerCall
		}
		return nil
	}
	counter := func(name string) *float64 {
		if x, ok := r.counters[name]; ok {
			return &x
		}
		return nil
	}
	ops := float64(r.ops)
	perOp := func(name string) *float64 { return ratio(counter(name), &ops) }

	for _, name := range []string{"sipmsg.parse", "sipmsg.serialize", "sipmsg.frame", "transport.udp_send_recv",
		"transport.stream_write", "ipc.fd_request", "fdcache.get", "conn.insert_remove", "connmgr.touch",
		"connmgr.expired", "transaction.create_match", "timerlist.schedule_cancel", "location.lookup",
		"location.register", "userdb.lookup", "proxy.digest", "proxy.handle"} {
		v[name+"_ns"] = probe(name)
	}
	if p, ok := probes["sipmsg.parse"]; ok {
		v.set("sipmsg.allocs_per_call", p.AllocsPerCall)
	}
	v["transport.udp_msgs_per_syscall"] = ratio(sum(counter("udp_recv_msgs_total"), counter("udp_send_msgs_total")),
		sum(counter("udp_recv_syscalls_total"), counter("udp_send_syscalls_total")))
	v["transport.tcp_msgs_per_write"] = ratio(counter("tcp_write_msgs_total"), counter("tcp_write_syscalls_total"))
	v["ipc.fd_requests_per_op"] = perOp("ipc_fd_requests_total")
	v["fdcache.hit_ratio"] = ratio(counter("fdcache_hits_total"), sum(counter("fdcache_hits_total"), counter("fdcache_misses_total")))
	v["conn.conns_accepted_per_op"] = perOp("conn_accepted_total")
	v["connmgr.scan_visits_per_op"] = perOp("connmgr_scan_visits_total")
	v["transaction.txn_lock_wait_ns_per_op"] = times(perOp("lock_txn_shards_seconds_total"), ptr(1e9))
	v["transaction.retransmits_per_op"] = ratio(sum(counter("txn_retransmits_total"), counter("txn_final_retransmits_total")), &ops)
	if g, ok := r.gauges["timers_pending"]; ok {
		v.set("timerlist.resident_timers", g)
	}
	v["userdb.lookups_per_op"] = perOp("userdb_lookup_calls_total")
	v["proxy.auth_challenges_per_op"] = perOp("proxy_auth_challenges_total")
	if r.untracedOps > 0 {
		v.set("trace.trace_overhead_pct", (1-r.tracedOps/r.untracedOps)*100)
	}
	req, resp := forwardingDelays(r.callerSpans, r.calleeSpans)
	v["gen.proxy_fwd_request_us"], v["gen.proxy_fwd_response_us"] = req, resp

	// The budget: rows that do not overlap, so their sum can be held against
	// the measured CPU per op. proxy.handle contains transaction, timerlist,
	// location, userdb and digest work, which therefore have no row of their
	// own; what no row covers (worker loops, scheduler, GC, kernel) is core.
	msgs, sends := perOp("proxy_messages_total"), perOp("stage_send_seconds_count")
	parse, wire, wireCalls := v["sipmsg.parse_ns"], times(v["transport.udp_send_recv_ns"], ptr(0.5)),
		ratio(sum(counter("udp_recv_msgs_total"), counter("udp_send_msgs_total")), &ops)
	if wl.network == "tcp" {
		parse, wire, wireCalls = v["sipmsg.frame_ns"], v["transport.stream_write_ns"], sends
	}
	rows := []budgetRow{
		{Layer: "sipmsg parse", NsPerCall: parse, CallsPerOp: perOp("stage_parse_seconds_count")},
		{Layer: "proxy handle", NsPerCall: v["proxy.handle_ns"], CallsPerOp: msgs},
		{Layer: "sipmsg serialize", NsPerCall: v["sipmsg.serialize_ns"], CallsPerOp: sends},
		{Layer: "transport", NsPerCall: wire, CallsPerOp: wireCalls},
	}
	if wl.network == "tcp" {
		rows = append(rows,
			budgetRow{Layer: "ipc fd request", NsPerCall: v["ipc.fd_request_ns"], CallsPerOp: v["ipc.fd_requests_per_op"]},
			budgetRow{Layer: "fdcache get", NsPerCall: v["fdcache.get_ns"], CallsPerOp: perOp("fdcache_hits_total")},
			budgetRow{Layer: "conn insert+remove", NsPerCall: v["conn.insert_remove_ns"], CallsPerOp: v["conn.conns_accepted_per_op"]},
			budgetRow{Layer: "connmgr touch", NsPerCall: v["connmgr.touch_ns"], CallsPerOp: msgs},
			budgetRow{Layer: "connmgr idle check", NsPerCall: v["connmgr.expired_ns"], CallsPerOp: perOp("connmgr_idle_scan_calls_total")})
	}
	covered := ptr(0.0)
	for i := range rows {
		rows[i].UsPerOp = times(rows[i].NsPerCall, rows[i].CallsPerOp, ptr(1e-3))
		covered = sum(covered, rows[i].UsPerOp)
	}
	// Probes and round ran within seconds of each other, so the budget is
	// held against the CPU per op as the clocks read it.
	if covered != nil && r.Raw.CPUUsPerOp > 0 {
		v.set("core.residual_us_per_op", r.Raw.CPUUsPerOp-*covered)
		v.set("core.budget_coverage", *covered/r.Raw.CPUUsPerOp)
	}
	for _, d := range perLayer {
		if _, ok := v[d.Name]; !ok {
			v[d.Name] = nil
		}
	}
	return v, rows
}

func ptr(x float64) *float64 { return &x }

// forwardingDelays pairs caller and callee spans of the same call — they
// share a clock — into the median time the proxy took to carry the INVITE
// to the callee and the 200 back.
func forwardingDelays(caller, callee []span) (request, response *float64) {
	at := map[string]span{}
	for _, s := range callee {
		if s.Name == "callee.invite" {
			at[s.Op] = s
		}
	}
	var req, resp []float64
	for _, s := range caller {
		if c, ok := at[s.Op]; ok && s.Name == "invite" {
			req = append(req, float64(c.Start-s.Start)/1e3)
			resp = append(resp, float64(s.End-c.End)/1e3)
		}
	}
	if len(req) == 0 {
		return nil, nil
	}
	return ptr(median(req)), ptr(median(resp))
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Clock    string `json:"clock"`
	Calls    int    `json:"calls"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the generator's spans of one traced round and returns
// how many root spans it holds. Only calls both sides recorded are written,
// so every call in the file is whole.
func writeTrace(path string, wl *workload, r *roundResult) (int, error) {
	roots := map[string]bool{}
	for _, s := range r.callerSpans {
		if s.Parent == "" {
			roots[s.Op] = true
		}
	}
	seen := map[string]int{}
	for _, s := range r.calleeSpans {
		seen[s.Op]++
	}
	out := traceFile{Workload: wl.name, Clock: "ns since the generator started; caller and callee share it"}
	keep := func(op string) bool { return roots[op] && (wl.register || seen[op] == 2) }
	for _, s := range append(append([]span(nil), r.callerSpans...), r.calleeSpans...) {
		if keep(s.Op) {
			out.Spans = append(out.Spans, s)
			if s.Parent == "" {
				out.Calls++
			}
		}
	}
	sort.SliceStable(out.Spans, func(i, j int) bool { return out.Spans[i].Start < out.Spans[j].Start })
	if bad := spansOutsideParent(out.Spans); bad > 0 {
		return 0, fmt.Errorf("%s: %d spans lie outside their parent", path, bad)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return 0, err
	}
	return out.Calls, os.WriteFile(path, b, 0o644)
}

// spansOutsideParent counts spans that are not contained in the span of the
// same op that they name as parent.
func spansOutsideParent(spans []span) int {
	type key struct{ op, name string }
	byName := map[key]span{}
	for _, s := range spans {
		byName[key{s.Op, s.Name}] = s
	}
	bad := 0
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		p, ok := byName[key{s.Op, s.Parent}]
		if !ok || s.Start < p.Start || s.End > p.End {
			bad++
		}
	}
	return bad
}
