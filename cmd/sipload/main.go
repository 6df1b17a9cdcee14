// Command sipload is the benchmark client of §4.2: it simulates phone
// pairs against a running proxy (see cmd/sipproxyd), registers them, has
// every caller place a fixed number of calls, and reports throughput in
// operations per second.
//
//	sipload -proxy 127.0.0.1:5060 -transport tcp -pairs 100 -calls 100
//	sipload -proxy 127.0.0.1:5060 -transport tcp -ops-per-conn 50
//	sipload -proxy 127.0.0.1:5060 -transport udp -pairs 500
//
// The target proxy must have at least 2×pairs users provisioned starting
// at -user-offset (sipproxyd's -users default covers this).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gosip/internal/loadgen"
	"gosip/internal/transport"
)

func main() {
	var (
		proxyAddr   = flag.String("proxy", "127.0.0.1:5060", "proxy address")
		kind        = flag.String("transport", "udp", "transport: udp, tcp, or tls")
		domain      = flag.String("domain", "gosip.test", "SIP domain")
		pairs       = flag.Int("pairs", 10, "concurrent caller/callee pairs")
		calls       = flag.Int("calls", 50, "calls per caller (1 call = 2 operations)")
		opsPerConn  = flag.Int("ops-per-conn", 0, "TCP: reconnect after this many operations (0 = persistent)")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-response timeout")
		retries     = flag.Int("retries", 7, "UDP retransmissions per request")
		offset      = flag.Int("user-offset", 0, "first user index to use")
		tlsInsecure = flag.Bool("tls-insecure", false, "tls: skip proxy certificate verification (self-signed proxies)")
		tlsResume   = flag.Bool("tls-resume", true, "tls: share one session cache across the fleet so reconnects resume")
	)
	flag.Parse()

	tkind := transport.Kind(strings.ToUpper(*kind))
	var tlsCtx *transport.TLSContext
	if tkind == transport.TLS {
		// The fleet presents its own runtime self-signed certificate (the
		// proxy may dial back for callee legs) and, by default, skips
		// nothing: point -tls-insecure at proxies whose CA this host lacks.
		cert, _, err := transport.GenerateSelfSigned("sipload")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sipload: certificate: %v\n", err)
			os.Exit(1)
		}
		tlsCtx, err = transport.NewTLSContext(transport.TLSOptions{
			Cert:               cert,
			InsecureSkipVerify: *tlsInsecure,
			Resume:             *tlsResume,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sipload: tls: %v\n", err)
			os.Exit(1)
		}
	}

	res, err := loadgen.Run(loadgen.Config{
		Transport:       tkind,
		TLS:             tlsCtx,
		ProxyAddr:       *proxyAddr,
		Domain:          *domain,
		Pairs:           *pairs,
		CallsPerCaller:  *calls,
		OpsPerConn:      *opsPerConn,
		ResponseTimeout: *timeout,
		MaxRetries:      *retries,
		UserOffset:      *offset,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sipload: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("transport=%s pairs=%d calls/caller=%d ops/conn=%d\n", *kind, *pairs, *calls, *opsPerConn)
	fmt.Println(res)
	if res.CallsFailed > 0 {
		os.Exit(2)
	}
}
