package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/overload"
	"gosip/internal/sipmsg"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// Metrics the register sweep's Start hook adds to each cell's server
// profile, so the cell's snapshot carries them beside the server's own.
const (
	gaugePrefill         = "prefill.bindings"
	gaugeBytesPerBinding = "prefill.bytes_per_binding"
	histLookupProbe      = "probe.lookup"
)

// lookupProbers is how many goroutines time LookupOne on the pre-filled
// AORs during the load — the proxy-routing side of the registrar under
// registration churn.
const lookupProbers = 2

// register is the registration avalanche: a registrar holding a large
// pre-filled location store, hit by N phones all re-REGISTERing at once —
// the synchronized storm that follows a registrar restart or a partition
// healing. Capacity is pinned by the simulated credential database (2 ms
// serialized over a pool of 2, ≈1000 authenticated REGISTERs/s), so the
// rows measure how the registrar defenses compose: the expiry-wheel
// location store (always on), the digest-auth credential cache, and the
// admission controller.
var register = &Sweep{
	Name:  "register",
	Title: "Registration avalanche: sustained REGISTER goodput (reg/s) vs avalanche size (DB 2ms x2 pool)",
	Loads: []int{16, 128}, Calls: 40, Workers: 8,
	Server: func(c *core.Config) {
		c.DB = userdb.Config{LookupLatency: 2 * time.Millisecond, PoolSize: 2}
		c.Overload.MaxPending, c.Overload.MaxQueue = 8, 16
	},
	Load: func(lc *loadgen.Config) {
		lc.Scenario = loadgen.ScenarioRegistrations
		// Impatient phones are what turn a saturated registrar into a
		// collapsing one.
		lc.ResponseTimeout, lc.MaxRetries = 150*time.Millisecond, 2
		lc.RejectRetries, lc.BackoffCap = 6, 100*time.Millisecond
		// Setup registers against the same capacity-pinned database; trickle
		// it so the unmeasured phase doesn't trip the controller first.
		lc.RegisterConcurrency = 8
	},
	Rows: []Row{
		{Name: "noauth", Transport: transport.UDP},
		registerRow("auth", "noauth", false, ""),
		registerRow("auth+ctrl", "auth", false, overload.PolicyOccupancy),
		registerRow("auth+cache", "auth", true, ""),
		registerRow("auth+cache+ctrl", "auth", true, overload.PolicyOccupancy),
	},
	Start: prefill,
	Cols: []Column{
		counter("shed", metrics.MetricOverloadRejected),
		{"lookup p50/p99", func(c, _ *Cell) string { return durations(c.Snapshot.Histograms[histLookupProbe]) }},
		{"probes", func(c, _ *Cell) string { return fmt.Sprint(c.Snapshot.Histograms[histLookupProbe].Count) }},
		{"cache hit/miss", func(c, _ *Cell) string {
			return fmt.Sprintf("%d/%d", c.Snapshot.Counters[metrics.MetricAuthCacheHits], c.Snapshot.Counters[metrics.MetricAuthCacheMisses])
		}},
		gauge("prefill", gaugePrefill),
		gauge("B/binding", gaugeBytesPerBinding),
		{"heap peak", func(c, _ *Cell) string {
			var p uint64
			for _, s := range c.Series.Samples {
				p = max(p, s.HeapAlloc)
			}
			return fmt.Sprintf("%.0fMiB", float64(p)/(1<<20))
		}},
	},
}

func registerRow(name, ref string, cache bool, policy overload.Policy) Row {
	return Row{Name: name, Transport: transport.UDP, Ref: ref, Server: func(c *core.Config) {
		c.Auth = true
		if cache {
			c.DB.Cache = userdb.CacheConfig{Entries: 1 << 17, TTL: time.Minute}
		}
		c.Overload.Policy = policy
	}}
}

// prefill fills the location store with env.Prefill synthetic bindings,
// measuring the store's marginal heap cost per binding, and starts the
// lookup probers the returned function stops.
func prefill(env Env, srv core.Server) (func() string, error) {
	// The user strings exist before the baseline reading, so the measured
	// delta is the store's own cost per binding: node, wheel links, AOR
	// index slot, store-owned key string.
	users := make([]string, env.Prefill)
	for i := range users {
		users[i] = fmt.Sprintf("pf%d", i)
	}
	loc, prof := srv.Location(), srv.Profile()
	now := time.Now()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, u := range users {
		loc.RegisterContact(sipmsg.URI{User: u, Host: domain},
			location.Binding{
				Contact:   sipmsg.URI{User: u, Host: "192.0.2.10", Port: 5060},
				Transport: "UDP",
				Source:    "192.0.2.10:5060",
			}, time.Hour, now)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n, perBinding := float64(len(users)), 0.0
	if n > 0 && after.HeapAlloc > before.HeapAlloc {
		perBinding = float64(after.HeapAlloc-before.HeapAlloc) / n
	}
	prof.SetGauge(gaugePrefill, func() float64 { return n })
	prof.SetGauge(gaugeBytesPerBinding, func() float64 { return perBinding })

	// Probes come in short bursts with a sleep between them: the probers are
	// latency instruments, not load, and spinning them flat-out would starve
	// the server they measure on small hosts.
	hist := prof.Histogram(histLookupProbe)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < lookupProbers && len(users) > 0; p++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for k := 0; k < 8; k++ {
					u := sipmsg.URI{User: users[i%len(users)], Host: domain}
					t0 := time.Now()
					loc.LookupOne(u, t0)
					hist.Record(time.Since(t0))
					i += 7919 // coprime stride: spread probes across shards
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(p * 104729)
	}
	return func() string {
		close(done)
		wg.Wait()
		return ""
	}, nil
}
