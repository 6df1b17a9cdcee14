package transport

import (
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"sync"
	"time"

	"gosip/internal/metrics"
)

// TLS is the secure stream transport. It rides the same StreamConn
// machinery as TCP — framing reader, shared write lock — with a crypto/tls
// layer slotted between the socket and the framing, so every stream-side
// mechanism (reader backpressure, the connmgr policies) applies unchanged.
const TLS Kind = "TLS"

// DefaultHandshakeTimeout bounds explicit TLS handshakes: a peer that
// connects and then stalls mid-handshake must not pin a reader goroutine.
const DefaultHandshakeTimeout = 5 * time.Second

// tlsTicketKeyHistory is how many server session-ticket keys stay live
// after rotation, so tickets issued under the previous key still resume.
const tlsTicketKeyHistory = 3

// TLSOptions configures a TLSContext. One context can serve both roles:
// the certificate is presented to peers on accepted connections, and the
// root pool verifies dialed ones.
type TLSOptions struct {
	// Cert is the certificate presented on accepted connections (and for
	// client auth if a peer requests it). Generate at runtime with
	// GenerateSelfSigned — no key material belongs in the repository.
	Cert tls.Certificate
	// RootCAs verifies dialed peers. Nil falls back to the system pool.
	RootCAs *x509.CertPool
	// InsecureSkipVerify disables dial-side verification — only for
	// pointing the load generator at a proxy whose CA it does not hold.
	InsecureSkipVerify bool
	// Resume arms a client session cache on the dial side so reconnects
	// resume with a session ticket instead of a full handshake. The cache
	// is the context's own, shared by every connection it dials.
	Resume bool
	// TicketRotate, when positive, rotates the server's session-ticket key
	// on this period (keeping tlsTicketKeyHistory keys live). Zero keeps
	// crypto/tls's internal automatic rotation.
	TicketRotate time.Duration
	// HandshakeTimeout bounds explicit handshakes (0 = DefaultHandshakeTimeout).
	HandshakeTimeout time.Duration
	// Profile receives handshake instrumentation. Nil is valid: counters
	// and the stage histogram become no-ops.
	Profile *metrics.Profile
}

// TLSContext holds the two tls.Configs, the resumption machinery, and the
// handshake instrumentation for one endpoint (proxy or phone fleet). All
// methods are safe for concurrent use; Server/Client/Handshake are also
// safe on a nil receiver, degrading to plain-TCP no-ops so stream call
// sites need no branching.
type TLSContext struct {
	server    *tls.Config
	client    *tls.Config
	hsTimeout time.Duration
	resume    bool

	full      *metrics.Counter
	resumed   *metrics.Counter
	failures  *metrics.Counter
	rotations *metrics.Counter
	hsHist    *metrics.Histogram

	mu         sync.Mutex
	ticketKeys [][32]byte
	rotateStop chan struct{}
	rotateDone chan struct{}
	closeOnce  sync.Once
}

// NewTLSContext builds a context from options. The returned context owns a
// ticket-rotation goroutine when TicketRotate is set; Close releases it.
func NewTLSContext(o TLSOptions) (*TLSContext, error) {
	if len(o.Cert.Certificate) == 0 {
		return nil, fmt.Errorf("transport: TLS context requires a certificate")
	}
	t := &TLSContext{
		hsTimeout: o.HandshakeTimeout,
		resume:    o.Resume,
	}
	if t.hsTimeout <= 0 {
		t.hsTimeout = DefaultHandshakeTimeout
	}
	if p := o.Profile; p != nil {
		t.full = p.Counter(metrics.MetricTLSFullHandshakes)
		t.resumed = p.Counter(metrics.MetricTLSResumptions)
		t.failures = p.Counter(metrics.MetricTLSHandshakeFailures)
		t.rotations = p.Counter(metrics.MetricTLSTicketRotations)
		t.hsHist = p.Histogram(metrics.StageHandshake)
	}
	t.server = &tls.Config{
		Certificates: []tls.Certificate{o.Cert},
		MinVersion:   tls.VersionTLS12,
	}
	t.client = &tls.Config{
		Certificates:       []tls.Certificate{o.Cert},
		RootCAs:            o.RootCAs,
		InsecureSkipVerify: o.InsecureSkipVerify,
		MinVersion:         tls.VersionTLS12,
	}
	if o.Resume {
		t.client.ClientSessionCache = tls.NewLRUClientSessionCache(1024)
	}
	if o.TicketRotate > 0 {
		// Install an explicit key so rotation is ours to drive; the newest
		// key encrypts new tickets, older ones still decrypt (resume) until
		// they age out of the history window.
		if err := t.rotateTicketKey(); err != nil {
			return nil, err
		}
		t.rotateStop = make(chan struct{})
		t.rotateDone = make(chan struct{})
		go t.rotateLoop(o.TicketRotate)
	}
	return t, nil
}

// rotateTicketKey prepends a fresh random ticket key and re-arms the server
// config. The first call installs the initial key (not counted as a
// rotation); later ones increment the rotation counter.
func (t *TLSContext) rotateTicketKey() error {
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		return fmt.Errorf("transport: ticket key: %w", err)
	}
	t.mu.Lock()
	first := len(t.ticketKeys) == 0
	t.ticketKeys = append([][32]byte{key}, t.ticketKeys...)
	if len(t.ticketKeys) > tlsTicketKeyHistory {
		t.ticketKeys = t.ticketKeys[:tlsTicketKeyHistory]
	}
	keys := make([][32]byte, len(t.ticketKeys))
	copy(keys, t.ticketKeys)
	t.mu.Unlock()
	t.server.SetSessionTicketKeys(keys)
	if !first {
		t.rotations.Inc()
	}
	return nil
}

func (t *TLSContext) rotateLoop(period time.Duration) {
	defer close(t.rotateDone)
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			_ = t.rotateTicketKey() // crypto/rand failure: keep current keys
		case <-t.rotateStop:
			return
		}
	}
}

// ResumptionArmed reports whether dials use a client session cache.
func (t *TLSContext) ResumptionArmed() bool { return t != nil && t.resume }

// Server wraps an accepted connection in the server-side TLS layer. The
// handshake is NOT run here: it happens lazily on first read, or
// explicitly (measured, bounded) via Handshake. Nil context: nc unchanged.
func (t *TLSContext) Server(nc net.Conn) net.Conn {
	if t == nil {
		return nc
	}
	return tls.Server(nc, t.server)
}

// Client wraps an established connection in the client-side TLS layer for
// a dial to hostport; the host part becomes the ServerName certificates
// are verified against (IP literals verify against IP SANs).
func (t *TLSContext) Client(nc net.Conn, hostport string) *tls.Conn {
	host, _, err := net.SplitHostPort(hostport)
	if err != nil {
		host = hostport
	}
	cfg := t.client.Clone() // the session cache pointer is shared across clones
	cfg.ServerName = host
	return tls.Client(nc, cfg)
}

// Handshake drives nc's TLS handshake to completion under the context's
// timeout, recording the duration in the stage.handshake histogram and
// classifying it as resumed or full via the connection state. Connections
// that are not TLS, or whose handshake already completed (a dialed
// connection re-entering the accepted-side path), are no-ops returning a
// zero duration.
func (t *TLSContext) Handshake(nc net.Conn) (time.Duration, error) {
	if t == nil {
		return 0, nil
	}
	tc, ok := nc.(*tls.Conn)
	if !ok || tc.ConnectionState().HandshakeComplete {
		return 0, nil
	}
	start := time.Now()
	_ = tc.SetDeadline(start.Add(t.hsTimeout))
	err := tc.Handshake()
	d := time.Since(start)
	if err != nil {
		t.failures.Inc()
		return d, fmt.Errorf("transport: tls handshake: %w", err)
	}
	_ = tc.SetDeadline(time.Time{})
	t.hsHist.Record(d)
	if tc.ConnectionState().DidResume {
		t.resumed.Inc()
	} else {
		t.full.Inc()
	}
	return d, nil
}

// DialAddr dials hostport over TCP, arms NoDelay, layers the client TLS
// state on, and completes the handshake (measured and bounded). The
// returned connection is ready for a StreamConn wrapper.
func (t *TLSContext) DialAddr(hostport string, timeout time.Duration) (*tls.Conn, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	nc, err := net.DialTimeout("tcp", hostport, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial tls %q: %w", hostport, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	tlc := t.Client(nc, hostport)
	if _, err := t.Handshake(tlc); err != nil {
		tlc.Close()
		return nil, err
	}
	return tlc, nil
}

// Close stops the ticket-rotation goroutine. Idempotent; contexts without
// rotation need not be closed but may be.
func (t *TLSContext) Close() {
	if t == nil || t.rotateStop == nil {
		return
	}
	t.closeOnce.Do(func() {
		close(t.rotateStop)
		<-t.rotateDone
	})
}
