package experiment

import (
	"fmt"
	"strings"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/overload"
	"gosip/internal/timerlist"
	"gosip/internal/transaction"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// registry is every figure, in sipexperiment -fig all order.
var registry = []*Sweep{
	paperFigure("3", "Figure 3: Baseline OpenSER performance (ops/s)", false, connmgr.KindScan),
	paperFigure("4", "Figure 4: File descriptor cache performance (ops/s)", true, connmgr.KindScan),
	paperFigure("5", "Figure 5: Priority queue performance (ops/s)", true, connmgr.KindPQueue),
	profile, priority, arch, scenarios, loss, stages,
	transports, overloadSweep, locks, register, outliers,
}

// idle is the paper's tuned connection management (§4.3): connections
// churned by the non-persistent workloads accumulate in the shared table
// for the 10s idle timeout, which is what makes the baseline full-table
// scan expensive.
func idle(c *core.Config) {
	c.IdleTimeout = 10 * time.Second
	c.SupervisorGrace = 5 * time.Second
	c.IdleCheckInterval = 100 * time.Millisecond
}

// conns selects the Figure 4 fd cache and the Figure 5 idle strategy.
func conns(fdcache bool, mgr connmgr.Kind) func(*core.Config) {
	return func(c *core.Config) { c.FDCache, c.ConnMgr = fdcache, mgr }
}

// patient is the phone patience of the paper-scale sweeps.
func patient(lc *loadgen.Config) { lc.ResponseTimeout = 2 * time.Second }

// paperFigure is one of Figures 3–5: the paper's four workloads at the
// paper's client ratios (1:5:10, shrunk from 100/500/1000 for one host),
// each TCP workload read as a percentage of UDP — the quantity the
// abstract tracks (13–51% baseline → 50–78% fixed).
func paperFigure(name, title string, fdcache bool, mgr connmgr.Kind) *Sweep {
	return &Sweep{
		Name: name, Title: title,
		Loads: []int{10, 50, 100}, Calls: 100, Workers: 8,
		Server: func(c *core.Config) { idle(c); conns(fdcache, mgr)(c) },
		Load:   patient,
		Rows: []Row{
			{Name: "TCP 50 ops/conn", Transport: transport.TCP, OpsPerConn: 50, Ref: "UDP"},
			{Name: "TCP 500 ops/conn", Transport: transport.TCP, OpsPerConn: 500, Ref: "UDP"},
			{Name: "TCP persistent", Transport: transport.TCP, Ref: "UDP"},
			{Name: "UDP", Transport: transport.UDP},
		},
		Timelines: []string{"TCP persistent", "UDP"},
	}
}

// middle is the single load of the sweeps that compare variants at one
// client count (the middle of the figures' range).
var middle = []int{50}

// profile reproduces the paper's OProfile observations (§5.1–5.3): the
// share of busy time blocked in the fd-request IPC with and without the fd
// cache, and idle-scan work under churn with the scanner versus the
// priority queue.
var profile = &Sweep{
	Name:  "profile",
	Title: "Profile (paper §5.1–5.3: fd-request IPC ~12.0% of busy time, ~4.6% with the fd cache; idle scan grows under churn)",
	Loads: middle, Calls: 100, Workers: 8,
	Server: idle, Load: patient,
	Rows: []Row{
		{Name: "TCP persistent", Transport: transport.TCP, Server: conns(false, connmgr.KindScan)},
		{Name: "TCP persistent fdcache", Transport: transport.TCP, Server: conns(true, connmgr.KindScan)},
		{Name: "TCP 50 ops/conn fdcache", Transport: transport.TCP, OpsPerConn: 50, Server: conns(true, connmgr.KindScan)},
		{Name: "TCP 50 ops/conn fdcache+pq", Transport: transport.TCP, OpsPerConn: 50, Server: conns(true, connmgr.KindPQueue)},
	},
	Cols: []Column{
		{"ipc % busy", func(c, _ *Cell) string { return fmt.Sprintf("%.1f%%", ipcShare(c.Snapshot)) }},
		counter("scan visits", metrics.MetricIdleScanVisits),
		{"scan time", func(c, _ *Cell) string {
			return c.Snapshot.Timers[metrics.MetricIdleScanTime].Total.Round(time.Millisecond).String()
		}},
	},
}

// ipcShare is the time blocked in fd requests as a percentage of busy time:
// worker processing plus supervisor work plus the requests themselves.
func ipcShare(s metrics.Snapshot) float64 {
	busy := s.Timers[metrics.MetricProcessTime].Total + s.Timers[metrics.MetricSupervisorWork].Total + s.Timers[metrics.MetricIPCTime].Total
	return s.PercentOf(metrics.MetricIPCTime, busy)
}

// priority reproduces §4.3: TCP persistent throughput with a boosted
// supervisor and with one starved by a per-request penalty.
var priority = &Sweep{
	Name:  "priority",
	Title: "Supervisor priority effect (paper §4.3: +40–100% from boosting)",
	Loads: middle, Calls: 100, Workers: 8,
	Server: func(c *core.Config) { idle(c); c.ConnMgr = connmgr.KindScan },
	Load:   patient,
	Rows: []Row{
		{Name: "boosted", Transport: transport.TCP, Ref: "starved"},
		{Name: "starved", Transport: transport.TCP, Server: func(c *core.Config) { c.SupervisorPenalty = 500 * time.Microsecond }},
	},
}

// arch compares the §6 alternatives on the persistent workload: the fixed
// TCP architecture, the multi-threaded shared address space, the
// SCTP-style message transport, and the UDP reference.
var arch = &Sweep{
	Name:  "arch",
	Title: "Architecture comparison (§6 discussion, TCP persistent workload)",
	Loads: middle, Calls: 100, Workers: 8,
	Server: idle, Load: patient,
	Rows: []Row{
		{Name: "TCP fixed (fdcache+pq)", Transport: transport.TCP, Ref: "UDP", Server: conns(true, connmgr.KindPQueue)},
		{Name: "Threaded (§6)", Transport: transport.TCP, Ref: "UDP", Server: func(c *core.Config) {
			c.Arch, c.ConnMgr = core.ArchThreaded, connmgr.KindPQueue
		}},
		{Name: "SCTP-sim (§6)", Transport: transport.UDP, Ref: "UDP", Server: func(c *core.Config) { c.Arch = core.ArchSCTP }},
		{Name: "UDP", Transport: transport.UDP},
	},
}

// scenarios compares the SIP server roles of §2 and the related work
// (Nahum et al.) over UDP; the expected shape is redirect > proxy >
// proxy+auth, authentication paying a database verification per request.
var scenarios = &Sweep{
	Name:  "scenarios",
	Title: "Server-role comparison (§2 roles; related work expects auth most expensive)",
	Loads: middle, Calls: 100, Workers: 8,
	Server: idle, Load: patient,
	Rows: []Row{
		{Name: "proxy", Transport: transport.UDP},
		{Name: "proxy+auth", Transport: transport.UDP, Ref: "proxy", Server: func(c *core.Config) { c.Auth = true }},
		{Name: "redirect", Transport: transport.UDP, Ref: "proxy", Server: func(c *core.Config) { c.Redirect = true }},
		{Name: "registration", Transport: transport.UDP, Load: func(lc *loadgen.Config) {
			lc.Scenario = loadgen.ScenarioRegistrations // one op per REGISTER
		}},
	},
}

// loss sweeps datagram loss on the stateful UDP proxy: the cost of
// reliability-by-retransmission that motivates the stateful design (§2).
// Short timers keep retransmission recovery inside the run.
var loss = &Sweep{
	Name:  "loss",
	Title: "Datagram loss sweep (stateful UDP proxy; calls complete via retransmission)",
	Loads: middle, Calls: 100, Workers: 8,
	Server: func(c *core.Config) {
		c.Faults.Seed = 1
		c.Txn = transaction.Config{T1: 60 * time.Millisecond, TimerB: 10 * time.Second, Linger: 2 * time.Second}
		c.TimerInterval = 20 * time.Millisecond
	},
	Load: func(lc *loadgen.Config) {
		lc.CallsPerCaller /= 2
		lc.ResponseTimeout = 400 * time.Millisecond
		lc.MaxRetries = 10
	},
	Rows: []Row{lossRow(0), lossRow(0.02), lossRow(0.05), lossRow(0.10)},
	Cols: []Column{
		{"rtx", func(c, _ *Cell) string { return fmt.Sprint(c.Result.Retransmits) }},
		failed,
	},
}

func lossRow(rate float64) Row {
	r := Row{Name: fmt.Sprintf("%.0f%% loss", 100*rate), Transport: transport.UDP,
		Server: func(c *core.Config) { c.Faults.DropRx, c.Faults.DropTx = rate, rate }}
	if rate > 0 {
		r.Ref = "0% loss"
	}
	return r
}

// stages tells the Figures 4/5 story as per-stage latency distributions:
// the fd cache and the pqueue progressively removing the TCP
// architecture's overheads.
var stages = &Sweep{
	Name:  "stages",
	Title: "Per-stage latency percentiles p50/p99 (Figures 4/5 as distributions)",
	Loads: middle, Calls: 100, Workers: 8,
	Server: idle, Load: patient,
	Rows: []Row{
		{Name: "TCP baseline", Transport: transport.TCP, Server: conns(false, connmgr.KindScan)},
		{Name: "TCP fd-cache", Transport: transport.TCP, Server: conns(true, connmgr.KindScan)},
		{Name: "TCP fd-cache+pqueue", Transport: transport.TCP, Server: conns(true, connmgr.KindPQueue)},
		{Name: "UDP", Transport: transport.UDP},
	},
	Cols: []Column{
		stage(metrics.StageParse), stage(metrics.StageTxnMatch), stage(metrics.StageDBLookup),
		stage(metrics.StageFDCacheHit), stage(metrics.StageFDIPC), stage(metrics.StageSend),
		stage(metrics.StageSupervisor), stage(metrics.StageProcess), stage(metrics.StageIdleScan),
	},
	Timelines: []string{"UDP"},
}

// overloadSweep drives a server whose capacity is pinned by a serialized
// 5 ms user-database query (≈200 tx/s, saturating at 6–8 pairs) to about
// 3× capacity. Without admission control goodput collapses — impatient
// clients time out and retransmit while the server pays the query for
// work that will never complete; a local policy sheds the excess cheaply
// (503 + Retry-After) and holds goodput near capacity (Hong et al.).
var overloadSweep = &Sweep{
	Name:  "overload",
	Title: "Overload sweep: goodput (completed ops/s) vs offered load (DB 5ms x1 pool)",
	Loads: []int{4, 48}, Calls: 20, Workers: 4,
	Server: func(c *core.Config) {
		c.Auth = true // every transaction pays the serialized DB query
		c.ConnMgr = connmgr.KindScan
		c.DB = userdb.Config{LookupLatency: 5 * time.Millisecond, PoolSize: 1}
		c.Overload.MaxPending, c.Overload.MaxQueue = 8, 16
	},
	Load: func(lc *loadgen.Config) {
		lc.ResponseTimeout, lc.MaxRetries = 150*time.Millisecond, 2
		lc.RejectRetries, lc.BackoffCap = 6, 100*time.Millisecond
		// Setup registers against the same capacity-pinned DB; trickle it so
		// the unmeasured phase doesn't overload the server first.
		lc.RegisterConcurrency = 4
	},
	Rows: overloadRows(),
	Cols: []Column{counter("shed", metrics.MetricOverloadRejected), failed},
}

func overloadRows() []Row {
	var rows []Row
	for _, kind := range []transport.Kind{transport.UDP, transport.TCP} {
		prefix := strings.ToLower(string(kind)) + "/"
		for _, p := range []overload.Policy{overload.PolicyNone, overload.PolicyThreshold, overload.PolicyOccupancy} {
			r := Row{Name: prefix + string(p), Transport: kind, Server: func(c *core.Config) { c.Overload.Policy = p }}
			if p != overload.PolicyNone {
				r.Ref = prefix + string(overload.PolicyNone)
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// locks compares the synchronization structure of the transaction hot
// path: timer policy (binary heap vs sharded wheel) and transaction-table
// shard count, over datagrams and the threaded stream server. Every row is
// stateful, and a 4s linger keeps completed transactions and their
// timers resident so the standing population reaches the tens of
// thousands the heap-vs-wheel comparison is about.
var locks = &Sweep{
	Name: "locks",
	Title: fmt.Sprintf("Lock and timer scaling sweep: ops/s and contended lock wait per operation (sharded = %d transaction shards)",
		transaction.DefaultShards()),
	Loads: []int{16, 128}, Calls: 50, Workers: 4, Reps: 5,
	Server: func(c *core.Config) {
		c.ConnMgr = connmgr.KindPQueue
		c.TimerShards = 4
		c.Txn.Linger = 4 * time.Second
	},
	Rows: []Row{
		{Name: "udp/heap/txn1", Transport: transport.UDP, Server: timers(timerlist.ImplHeap, 1)},
		{Name: "udp/heap/sharded", Transport: transport.UDP, Ref: "udp/heap/txn1", Server: timers(timerlist.ImplHeap, 0)},
		{Name: "udp/wheel/sharded", Transport: transport.UDP, Ref: "udp/heap/sharded", Server: timers(timerlist.ImplWheel, 0)},
		{Name: "threaded/heap/sharded", Transport: transport.TCP, Server: timers(timerlist.ImplHeap, 0)},
		{Name: "threaded/wheel/sharded", Transport: transport.TCP, Ref: "threaded/heap/sharded", Server: timers(timerlist.ImplWheel, 0)},
	},
	Cols: []Column{
		{"lock wait/op", func(c, _ *Cell) string {
			if c.Result.Ops == 0 {
				return "-"
			}
			wait := c.Snapshot.Timers[metrics.MetricTimerLockWait].Total + c.Snapshot.Timers[metrics.MetricTxnLockWait].Total
			return (wait / time.Duration(c.Result.Ops)).String()
		}},
		peak("peak pending", metrics.GaugeTimersPending),
		peak("peak corpses", metrics.GaugeTimersCancelledResident),
		gauge("scheduled", metrics.GaugeTimersScheduled),
		gauge("fired", metrics.GaugeTimersFired),
		failed,
	},
}

// timers selects a locks row's timer policy and transaction shard count; a
// TCP row runs the threaded architecture.
func timers(impl timerlist.Impl, txnShards int) func(*core.Config) {
	return func(c *core.Config) {
		c.TimerImpl, c.Txn.Shards = impl, txnShards
		if c.Arch == core.ArchTCP {
			c.Arch = core.ArchThreaded
		}
	}
}

// failed is the calls that did not complete.
var failed = Column{"failed", func(c, _ *Cell) string { return fmt.Sprint(c.Result.CallsFailed) }}

func counter(name, metric string) Column {
	return Column{name, func(c, _ *Cell) string { return fmt.Sprint(c.Snapshot.Counters[metric]) }}
}

// gauge prints a gauge as read at the end of the run.
func gauge(name, g string) Column {
	return Column{name, func(c, _ *Cell) string { return fmt.Sprintf("%.0f", c.Snapshot.Gauges[g]) }}
}

// peak prints a gauge's maximum over the run's sampled series.
func peak(name, g string) Column {
	return Column{name, func(c, _ *Cell) string {
		p := 0.0
		for _, s := range c.Series.Samples {
			p = max(p, s.Snap.Gauges[g])
		}
		return fmt.Sprintf("%.0f", p)
	}}
}

func stage(st string) Column {
	return Column{strings.TrimPrefix(st, "stage."), func(c, _ *Cell) string { return durations(c.Snapshot.Histograms[st]) }}
}
