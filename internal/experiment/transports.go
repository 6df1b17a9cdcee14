// Transport-matrix sweep: UDP vs TCP vs TLS on the tuned server (fd cache +
// pqueue), the price-of-privacy companion to Figures 3–5. The question it
// answers is where TLS's cost actually sits: with persistent connections
// and session resumption the steady state is the TCP persistent path plus
// record-layer crypto, while per-call connections expose the full
// handshake — amortization, not encryption, dominates the gap.
package experiment

import (
	"fmt"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/core"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/transport"
)

// perCallOps closes the phone's connection after every call (INVITE + BYE =
// 2 ops), the workload that maximizes connection-establishment cost.
const perCallOps = 2

var transports = &Sweep{
	Name:  "transports",
	Title: "Transport matrix: UDP/TCP/TLS on the tuned server (fd cache + pqueue)",
	Loads: []int{10, 50, 100}, Calls: 100, Workers: 8,
	Server: idle, Load: patient,
	Rows: []Row{
		{Name: "UDP", Transport: transport.UDP, Server: conns(false, connmgr.KindScan)},
		{Name: "TCP persistent", Transport: transport.TCP, Server: conns(true, connmgr.KindPQueue)},
		{Name: "TCP per-call", Transport: transport.TCP, OpsPerConn: perCallOps, Ref: "TCP persistent", Server: conns(true, connmgr.KindPQueue)},
		tlsRow("TLS persistent+resume", 0, true),
		tlsRow("TLS persistent", 0, false),
		tlsRow("TLS per-call+resume", perCallOps, true),
		tlsRow("TLS per-call", perCallOps, false),
	},
	Configure: withCert,
	Cols: []Column{
		{"handshakes full/resumed", func(c, _ *Cell) string {
			full, resumed := c.Snapshot.Counters[metrics.MetricTLSFullHandshakes], c.Snapshot.Counters[metrics.MetricTLSResumptions]
			if full+resumed == 0 {
				return "-"
			}
			return fmt.Sprintf("%d/%d", full, resumed)
		}},
		{"handshake p50/p99", func(c, _ *Cell) string { return durations(c.Snapshot.Histograms[metrics.StageHandshake]) }},
		{"pinned sends", func(c, _ *Cell) string {
			// Sends pinned to the owning process: TLS crypto state cannot
			// travel with a duplicated descriptor.
			if c.Snapshot.Histograms[metrics.StageHandshake].Count == 0 {
				return "-"
			}
			return fmt.Sprint(c.Snapshot.Counters[metrics.MetricTLSPinnedSends])
		}},
		{"reconnects", func(c, _ *Cell) string { return fmt.Sprint(c.Result.Reconnects) }},
	},
}

// tlsRow arms resumption on both sides when resume is set: the server
// issues session tickets (with a rotating key, exercising the rotation path
// under load) and the phone fleet shares one client session cache so
// per-call reconnects resume.
func tlsRow(name string, opsPerConn int, resume bool) Row {
	return Row{Name: name, Transport: transport.TLS, OpsPerConn: opsPerConn, Ref: "TCP persistent",
		Server: func(c *core.Config) {
			conns(true, connmgr.KindPQueue)(c)
			c.TLS = &transport.TLSOptions{Resume: resume, TicketRotate: 30 * time.Second}
		}}
}

// withCert gives a TLS cell's proxy a certificate generated at run time and
// shares it with the phone fleet as its trust root; no key material
// touches disk.
func withCert(c *core.Config, lc *loadgen.Config) error {
	if c.TLS == nil {
		return nil
	}
	cert, pool, err := transport.GenerateSelfSigned("gosip-bench")
	if err != nil {
		return fmt.Errorf("certificate: %w", err)
	}
	c.TLS.Cert, c.TLS.RootCAs = cert, pool
	lc.TLS, err = transport.NewTLSContext(transport.TLSOptions{Cert: cert, RootCAs: pool, Resume: c.TLS.Resume})
	return err
}
