//go:build linux

package main

// workload is one traffic mix against one server variant. Only sipproxyd's
// paper-variant and deployment flags appear here, so the rest of its flag
// set can be deleted without touching the benchmark.
type workload struct {
	name     string
	flags    []string // sipproxyd flags besides -addr, -domain and (traced) -metrics-addr
	network  string   // generator transport: "udp" or "tcp"
	register bool     // authenticated re-REGISTERs instead of calls
	churn    bool     // callers redial every churnEvery ops; parkedConns idle connections
	why      string   // one line, at most 200 characters: BENCHMARK.json carries it too
	// genUs is the generator's nominal CPU per op on this workload, in µs:
	// the median over quiet runs on the 2-core sandbox the benchmark was
	// defined on. A round's machine_speed is genUs over what it measured.
	genUs float64
}

const benchDomain = "bench.gosip"

var workloads = []workload{
	{
		name: "udp.calls", network: "udp",
		flags: []string{"-arch", "udp"},
		why:   "calls over UDP: retransmit/timeout timers armed and cancelled per op, datagram path carries every message; conn, connmgr, ipc, fdcache and stream framing are bypassed",
		genUs: 51,
	},
	{
		name: "tcp.baseline", network: "tcp",
		flags: []string{"-arch", "tcp", "-ipc", "unix", "-connmgr", "scan"},
		why:   "Figure 3 server (-ipc unix -connmgr scan): every cross-connection send is an fd request through the supervisor, the layer the paper blames",
		genUs: 77,
	},
	{
		name: "tcp.persistent", network: "tcp",
		flags: []string{"-arch", "tcp", "-ipc", "unix", "-fdcache", "-connmgr", "pqueue"},
		why:   "Figure 5 server (-fdcache -connmgr pqueue): fdcache hits and stream framing do the work; ipc and connmgr are nearly idle, so a gain there predicts no change here",
		genUs: 51,
	},
	{
		name: "tcp.churn", network: "tcp", churn: true,
		flags: []string{"-arch", "tcp", "-ipc", "unix", "-fdcache", "-connmgr", "pqueue", "-idle-timeout", "60s"},
		why:   "tcp.persistent server, callers redial every 50 ops beside 1000 parked idle connections: accept, table insert/remove, idle-queue upkeep, cache invalidation, miss-to-ipc path",
		genUs: 58,
	},
	{
		name: "threaded.persistent", network: "tcp",
		flags: []string{"-arch", "threaded"},
		why:   "-arch threaded, the paper's section 6 direct-write policy: no ipc, no fdcache; with tcp.* it pins both sides of the pipeline a later refactor will collapse",
		genUs: 51,
	},
	{
		name: "udp.register", network: "udp", register: true,
		flags: []string{"-arch", "udp", "-auth", "-users", "10000"},
		why:   "digest-authenticated re-REGISTERs cycling over 10000 AORs: location writes, userdb and proxy auth, which calls never touch; stateless, so transaction and timerlist stay idle",
		genUs: 34,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
