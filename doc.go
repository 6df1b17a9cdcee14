// Package gosip is a from-scratch Go reproduction of Ram, Fedeli, Cox &
// Rixner, "Explaining the Impact of Network Transport Protocols on SIP
// Proxy Performance" (ISPASS 2008): a stateful SIP proxy with OpenSER's
// process architecture modeled faithfully (single supervisor, worker
// ownership of connections, blocking SCM_RIGHTS fd-passing IPC), the
// paper's two fixes (per-worker file-descriptor cache, priority-queue
// idle-connection management), the §6 alternatives (multi-threaded shared
// address space, SCTP-style transport), and the complete benchmarking
// methodology.
//
// The root package holds only this overview. The implementation lives
// under internal/ (see README.md for the map), the runnable tools under
// cmd/, end-to-end demonstrations under examples/, and the repository's
// out-of-process benchmark under bench/.
//
// Start with:
//
//	go run ./examples/quickstart        # one call through an in-process proxy
//	go run ./cmd/sipexperiment -fig all # regenerate the paper's figures
//	bash bench/run.sh --workload udp.calls --seed 1 --seconds 8 --trace 0
//
// DESIGN.md documents the system inventory and every simulation
// substitution; EXPERIMENTS.md records paper-vs-measured results.
package gosip
