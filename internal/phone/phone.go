// Package phone implements the SIP user agents the benchmark drives: the
// caller (INVITE → ACK → BYE loops) and the callee (RINGING + OK answers),
// over UDP or TCP, with the paper's ops-per-connection reconnect policy
// for the non-persistent TCP workloads (§5.1).
//
// A caller is a synchronous state machine: it sends a request and waits
// for responses with a deadline, retransmitting over UDP (the transport
// gives no reliability) and failing the call after bounded retries. A
// callee is a small event loop answering every INVITE with 180 + 200 and
// every BYE with 200.
package phone

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"gosip/internal/metrics"
	"gosip/internal/proxy"
	"gosip/internal/sipmsg"
	"gosip/internal/transport"
)

// Role selects the phone's behaviour.
type Role int

// Caller phones place calls; Callee phones answer them.
const (
	Caller Role = iota
	Callee
)

// Config describes one simulated phone.
type Config struct {
	// Transport is UDP, TCP, or TLS.
	Transport transport.Kind
	// TLS supplies the client/server TLS state when Transport is TLS. The
	// context is shared across a fleet of phones so they all resume against
	// one session cache (the load generator owns it).
	TLS *transport.TLSContext
	// ProxyAddr is the SIP proxy's host:port.
	ProxyAddr string
	// Domain is the SIP domain (AOR host part).
	Domain string
	// User is this phone's username (e.g. "user17").
	User string
	// Password answers digest challenges when the server runs with
	// authentication enabled; empty means challenges fail the request.
	Password string
	// OpsPerConn, for TCP callers, closes and re-establishes the proxy
	// connection after this many operations (0 = persistent), reproducing
	// the paper's 50/500/persistent workloads.
	OpsPerConn int
	// ResponseTimeout bounds each wait for a response. Default 250ms.
	ResponseTimeout time.Duration
	// MaxRetries bounds UDP retransmissions per request. Default 7.
	MaxRetries int
	// RegisterTTL is the binding lifetime requested. Default 1 hour.
	RegisterTTL time.Duration
	// RejectRetries is how many times an INVITE rejected with 503 +
	// Retry-After (server overload control) is reoffered after backing
	// off. 0 keeps the old behaviour: any 503 fails the call immediately.
	RejectRetries int
	// BackoffCap bounds the honored Retry-After delay so experiment
	// schedules stay bounded even when the server advertises multi-second
	// back-offs. Default 2s.
	BackoffCap time.Duration
}

func (c Config) withDefaults() Config {
	if c.ResponseTimeout <= 0 {
		c.ResponseTimeout = 250 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 7
	}
	if c.RegisterTTL <= 0 {
		c.RegisterTTL = time.Hour
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 2 * time.Second
	}
	return c
}

// Stats counts a phone's activity.
type Stats struct {
	CallsAttempted int
	CallsCompleted int
	CallsFailed    int
	// The Failed* counters partition CallsFailed by terminal reason, so a
	// collapsing experiment can say *how* calls died, not just how many:
	// FailedTimeout — no final response inside the retransmission budget;
	// FailedRejected — a final 503 ended the call (overload shedding);
	// FailedStatus — any other non-2xx final status;
	// FailedTransport — socket-level failure (dial, write, reset).
	FailedTimeout   int
	FailedRejected  int
	FailedStatus    int
	FailedTransport int
	Ops             int // completed transactions (INVITE or BYE), the paper's unit
	Retransmits     int
	Reconnects      int
	// AuthRetries counts requests re-sent with credentials after a digest
	// challenge.
	AuthRetries int
	// Rejected counts 503 + Retry-After overload rejections received; a
	// rejected-then-retried call that later completes still counts here,
	// keeping goodput accounting honest about the extra offered load.
	Rejected int
	// BackoffTime accumulates the time spent honoring Retry-After.
	BackoffTime time.Duration

	// TotalCallTime accumulates wall time of completed calls; MaxCallTime
	// tracks the slowest. The load generator aggregates these into the
	// latency columns of its report.
	TotalCallTime time.Duration
	MaxCallTime   time.Duration
	// Latency is the distribution of completed-call wall times. A
	// fixed-bucket histogram keeps a phone's footprint constant however
	// many calls it places, so million-call runs use bounded memory.
	Latency metrics.HistogramSnapshot
}

// Errors.
var (
	ErrCallFailed = errors.New("phone: call failed")
	ErrClosed     = errors.New("phone: closed")
	// ErrTimeout marks a transaction that never saw a final response
	// within the retransmission budget; ErrTransport marks socket-level
	// failures. Both are wrapped under ErrCallFailed when a call dies on
	// them, so errors.Is works for either level of specificity.
	ErrTimeout   = errors.New("phone: transaction timeout")
	ErrTransport = errors.New("phone: transport failure")
)

// Phone is one simulated SIP endpoint.
type Phone struct {
	cfg  Config
	role Role

	udp *udpEndpoint
	tcp *tcpEndpoint

	cseq  uint32
	stats Stats
	lat   metrics.Histogram
}

// New creates a phone and binds its local socket(s). Callee phones start
// their answering loop immediately after Register is called.
func New(cfg Config, role Role) (*Phone, error) {
	cfg = cfg.withDefaults()
	p := &Phone{cfg: cfg, role: role}
	var err error
	switch cfg.Transport {
	case transport.UDP:
		p.udp, err = newUDPEndpoint(cfg)
	case transport.TCP:
		p.tcp, err = newTCPEndpoint(cfg, role)
	case transport.TLS:
		if cfg.TLS == nil {
			return nil, errors.New("phone: TLS transport without a TLS context")
		}
		// TLS rides the TCP endpoint unchanged: the crypto layer sits at the
		// net.Conn seam inside dial/accept.
		p.tcp, err = newTCPEndpoint(cfg, role)
	default:
		err = fmt.Errorf("phone: unsupported transport %q", cfg.Transport)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Stats returns a copy of the phone's counters. Callee counters are
// maintained by the answering loop; caller counters by Call.
func (p *Phone) Stats() Stats {
	if p.tcp != nil {
		p.stats.Reconnects = p.tcp.reconnects
	}
	st := p.stats
	st.Latency = p.lat.Snapshot()
	return st
}

// AOR returns the phone's address-of-record URI.
func (p *Phone) AOR() sipmsg.URI {
	return sipmsg.URI{User: p.cfg.User, Host: p.cfg.Domain}
}

// Contact returns the URI other parties can reach this phone at.
func (p *Phone) Contact() sipmsg.URI {
	host, port := p.localAddr()
	return sipmsg.URI{User: p.cfg.User, Host: host, Port: port}
}

func (p *Phone) localAddr() (string, int) {
	if p.udp != nil {
		a := p.udp.sock.LocalAddr()
		return a.Addr().String(), int(a.Port())
	}
	return p.tcp.listenHost, p.tcp.listenPort
}

func (p *Phone) via() sipmsg.Via {
	host, port := p.localAddr()
	return sipmsg.Via{Transport: string(p.cfg.Transport), Host: host, Port: port}
}

func (p *Phone) nextCSeq() uint32 {
	p.cseq++
	return p.cseq
}

// Register installs this phone's binding at the proxy and, for callees,
// starts the answering loop.
func (p *Phone) Register() error {
	contact := p.Contact()
	var resp *sipmsg.Message
	// Overload rejections (503 + Retry-After) are honored here exactly as in
	// Call: back off as instructed (capped) and re-attempt with a fresh
	// transaction, up to RejectRetries times.
	for attempt := 0; ; attempt++ {
		req := sipmsg.NewRequest(sipmsg.RequestSpec{
			Method:     sipmsg.REGISTER,
			RequestURI: sipmsg.URI{Host: p.cfg.Domain},
			From:       sipmsg.NameAddr{URI: p.AOR(), Params: map[string]string{"tag": sipmsg.NewTag()}},
			To:         sipmsg.NameAddr{URI: p.AOR()},
			CallID:     sipmsg.NewCallID(p.cfg.User),
			CSeq:       p.nextCSeq(),
			Via:        p.via(),
			Contact:    &sipmsg.NameAddr{URI: contact},
			Expires:    int(p.cfg.RegisterTTL / time.Second),
		})
		var err error
		resp, err = p.request(req, sipmsg.REGISTER)
		if err != nil {
			return fmt.Errorf("phone %s: register: %w", p.cfg.User, err)
		}
		ra, isReject := retryAfterDelay(resp)
		if !isReject {
			break
		}
		p.stats.Rejected++
		if attempt >= p.cfg.RejectRetries {
			break
		}
		if ra > p.cfg.BackoffCap {
			ra = p.cfg.BackoffCap
		}
		p.stats.BackoffTime += ra
		time.Sleep(ra)
	}
	if resp.StatusCode != sipmsg.StatusOK {
		return fmt.Errorf("phone %s: register rejected: %d %s", p.cfg.User, resp.StatusCode, resp.Reason)
	}
	if p.role == Callee && p.tcp != nil {
		p.tcp.startAnswering()
	}
	if p.role == Callee && p.udp != nil {
		p.udp.startAnswering()
	}
	return nil
}

// Call places one complete call to the given user: INVITE (await 200),
// ACK, BYE (await 200). It returns nil on success and counts two
// operations — the paper's unit of throughput. The callee is a bare
// username in this phone's domain, or "user@domain" for a cross-domain
// call routed over a sequence of proxies (§2).
func (p *Phone) Call(callee string) error {
	if p.role != Caller {
		return errors.New("phone: Call on a callee phone")
	}
	p.stats.CallsAttempted++
	callStart := time.Now()
	calleeURI := sipmsg.URI{User: callee, Host: p.cfg.Domain}
	if at := strings.IndexByte(callee, '@'); at >= 0 {
		calleeURI = sipmsg.URI{User: callee[:at], Host: callee[at+1:]}
	}
	callID := sipmsg.NewCallID(p.cfg.User)
	fromTag := sipmsg.NewTag()

	invite := sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.INVITE,
		RequestURI: calleeURI,
		From:       sipmsg.NameAddr{URI: p.AOR(), Params: map[string]string{"tag": fromTag}},
		To:         sipmsg.NameAddr{URI: calleeURI},
		CallID:     callID,
		CSeq:       p.nextCSeq(),
		Via:        p.via(),
		Contact:    &sipmsg.NameAddr{URI: p.Contact()},
		Body:       []byte("v=0\r\no=- 0 0 IN IP4 0.0.0.0\r\ns=-\r\n"),
	})
	finalInvite, err := p.request(invite, sipmsg.INVITE)
	if err != nil {
		p.failCall(0, err)
		return fmt.Errorf("%w: invite: %w", ErrCallFailed, err)
	}
	// An overload rejection (503 + Retry-After) is not a terminal failure:
	// the phone backs off as instructed — capped so experiment schedules
	// stay bounded — and reoffers with a fresh transaction, up to
	// RejectRetries times. Plain 503s (no Retry-After) stay terminal.
	for attempt := 0; ; attempt++ {
		ra, isReject := retryAfterDelay(finalInvite)
		if !isReject {
			break
		}
		p.stats.Rejected++
		if attempt >= p.cfg.RejectRetries {
			break
		}
		// Acknowledge the rejected final before abandoning its transaction,
		// so a stateful proxy's INVITE server transaction confirms instead
		// of retransmitting the 503 on Timer G. The terminal final (reject
		// retries exhausted, or any other non-2xx) is ACKed below.
		p.ackNon2xx(invite, finalInvite)
		if ra > p.cfg.BackoffCap {
			ra = p.cfg.BackoffCap
		}
		p.stats.BackoffTime += ra
		time.Sleep(ra)
		invite = p.reoffer(invite)
		if finalInvite, err = p.request(invite, sipmsg.INVITE); err != nil {
			p.failCall(0, err)
			return fmt.Errorf("%w: invite: %w", ErrCallFailed, err)
		}
	}
	// RFC 3261 §17.1.1.3: every non-2xx INVITE final gets an ACK on the
	// INVITE's own branch, confirming the server transaction upstream.
	p.ackNon2xx(invite, finalInvite)
	if finalInvite.StatusCode == 302 {
		// A redirection server (§2) answered: the INVITE transaction at the
		// server is complete (one operation); contact the callee directly.
		p.stats.Ops++
		// completeRedirected classifies its own failures (it knows whether
		// the direct leg died on a status, a timeout, or the socket).
		if err := p.completeRedirected(invite, finalInvite, callStart); err != nil {
			return err
		}
		return nil
	}
	if finalInvite.StatusCode != sipmsg.StatusOK {
		p.failCall(finalInvite.StatusCode, nil)
		return fmt.Errorf("%w: invite rejected: %d", ErrCallFailed, finalInvite.StatusCode)
	}
	p.stats.Ops++ // invite transaction complete

	// RFC 3261 §12.1.2: the dialog's route set is the 200's Record-Route
	// list reversed; the remote target is its Contact. When the proxy did
	// not record-route (the benchmark default), both stay empty and
	// in-dialog requests are addressed to the AOR as before.
	routeSet, remoteTarget := dialogRouteSet(finalInvite, calleeURI)

	ack := sipmsg.NewAck(invite, finalInvite, p.via())
	applyRouteSet(ack, routeSet, remoteTarget)
	if err := p.send(ack); err != nil {
		p.failCall(0, err)
		return fmt.Errorf("%w: ack: %w", ErrCallFailed, err)
	}

	bye := sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.BYE,
		RequestURI: calleeURI,
		From:       sipmsg.NameAddr{URI: p.AOR(), Params: map[string]string{"tag": fromTag}},
		To:         sipmsg.NameAddr{URI: calleeURI, Params: map[string]string{"tag": finalInvite.ToTag()}},
		CallID:     callID,
		CSeq:       p.nextCSeq(),
		Via:        p.via(),
	})
	applyRouteSet(bye, routeSet, remoteTarget)
	finalBye, err := p.request(bye, sipmsg.BYE)
	if err != nil {
		p.failCall(0, err)
		return fmt.Errorf("%w: bye: %w", ErrCallFailed, err)
	}
	if finalBye.StatusCode != sipmsg.StatusOK {
		p.failCall(finalBye.StatusCode, nil)
		return fmt.Errorf("%w: bye rejected: %d", ErrCallFailed, finalBye.StatusCode)
	}
	p.stats.Ops++ // bye transaction complete
	p.stats.CallsCompleted++
	p.recordLatency(time.Since(callStart))
	return nil
}

// ackNon2xx acknowledges a non-2xx INVITE final (RFC 3261 §17.1.1.3).
// NewAck reuses the INVITE's branch for status ≥ 300, so the ACK lands in
// the proxy's INVITE server transaction, moving it Completed → Confirmed
// and stopping the Timer G final-response retransmission cycle.
// Best-effort and fire-and-forget: the transaction above gives up on
// Timer H regardless, and a duplicate ACK is absorbed in Confirmed.
func (p *Phone) ackNon2xx(invite, resp *sipmsg.Message) {
	if resp == nil || resp.StatusCode < 300 {
		return
	}
	_ = p.send(sipmsg.NewAck(invite, resp, p.via()))
}

func (p *Phone) recordLatency(elapsed time.Duration) {
	p.stats.TotalCallTime += elapsed
	if elapsed > p.stats.MaxCallTime {
		p.stats.MaxCallTime = elapsed
	}
	p.lat.Record(elapsed)
}

// request performs one transaction as a client: send, await the final
// response (2xx–6xx) matching the request's CSeq, with retransmission
// over UDP and bounded reconnects over TCP.
func (p *Phone) request(req *sipmsg.Message, method sipmsg.Method) (*sipmsg.Message, error) {
	resp, err := p.rawRequest(req, method)
	if err != nil {
		return nil, err
	}
	if (resp.StatusCode == 401 || resp.StatusCode == 407) && p.cfg.Password != "" {
		retry, err := p.answerChallenge(req, resp)
		if err != nil {
			return nil, err
		}
		p.stats.AuthRetries++
		return p.rawRequest(retry, method)
	}
	return resp, nil
}

func (p *Phone) rawRequest(req *sipmsg.Message, method sipmsg.Method) (*sipmsg.Message, error) {
	if p.udp != nil {
		return p.udp.request(req, method, &p.stats)
	}
	return p.tcp.request(req, method, &p.stats)
}

// answerChallenge builds the authenticated retry for a 401/407: same
// request with a fresh branch, an incremented CSeq, and the Digest
// credentials computed from the phone's password (RFC 3261 §22).
func (p *Phone) answerChallenge(req, challenge *sipmsg.Message) (*sipmsg.Message, error) {
	chHeader, credHeader := "WWW-Authenticate", "Authorization"
	if challenge.StatusCode == 407 {
		chHeader, credHeader = "Proxy-Authenticate", "Proxy-Authorization"
	}
	chVal, ok := challenge.Get(chHeader)
	if !ok {
		return nil, fmt.Errorf("phone: %d without %s", challenge.StatusCode, chHeader)
	}
	realm, nonce, err := proxy.ParseChallenge(chVal)
	if err != nil {
		return nil, err
	}
	retry := req.Clone()
	retry.Set("CSeq", fmt.Sprintf("%d %s", p.nextCSeq(), req.Method))
	if via, err := retry.TopVia(); err == nil {
		via.Params["branch"] = sipmsg.NewBranch()
		retry.RemoveFirst("Via")
		retry.Prepend("Via", via.String())
	}
	uri := retry.RequestURI.String()
	creds := proxy.Credentials{
		Username: p.cfg.User,
		Realm:    realm,
		Nonce:    nonce,
		URI:      uri,
		Response: proxy.DigestResponse(p.cfg.User, realm, p.cfg.Password, nonce, string(req.Method), uri),
	}
	retry.Set(credHeader, creds.Format())
	return retry, nil
}

// reoffer clones a rejected request with a fresh branch and CSeq so the
// proxy sees a new transaction rather than a retransmission of the one it
// rejected.
func (p *Phone) reoffer(req *sipmsg.Message) *sipmsg.Message {
	r := req.Clone()
	r.Set("CSeq", fmt.Sprintf("%d %s", p.nextCSeq(), req.Method))
	if via, err := r.TopVia(); err == nil {
		via.Params["branch"] = sipmsg.NewBranch()
		r.RemoveFirst("Via")
		r.Prepend("Via", via.String())
	}
	return r
}

// failCall counts a terminal call failure under its reason. status is the
// final status code when the call died on a response (0 when it died on
// the wire), err the transport-layer error in the latter case. Every
// failure lands in exactly one Failed* bucket, so the buckets always sum
// to CallsFailed.
func (p *Phone) failCall(status int, err error) {
	p.stats.CallsFailed++
	switch {
	case status == sipmsg.StatusServiceUnavail:
		p.stats.FailedRejected++
	case status > 0:
		p.stats.FailedStatus++
	case errors.Is(err, ErrTimeout):
		p.stats.FailedTimeout++
	default:
		p.stats.FailedTransport++
	}
}

// retryAfterDelay reports whether resp is an overload rejection — a 503
// carrying Retry-After delta-seconds (RFC 3261 §20.33) — and the
// advertised delay.
func retryAfterDelay(resp *sipmsg.Message) (time.Duration, bool) {
	if resp.StatusCode != sipmsg.StatusServiceUnavail {
		return 0, false
	}
	v, ok := resp.Get("Retry-After")
	if !ok {
		return 0, false
	}
	// The header may carry parameters or a comment; the delay is the
	// leading integer.
	v = strings.TrimSpace(v)
	if i := strings.IndexAny(v, "; ("); i >= 0 {
		v = v[:i]
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// completeRedirected follows a 302: it re-runs the call directly against
// the Contact the redirection server returned, bypassing the server for
// the rest of the call (ACK and BYE included).
func (p *Phone) completeRedirected(invite, redirect *sipmsg.Message, callStart time.Time) error {
	contactVal, ok := redirect.Get("Contact")
	if !ok {
		p.failCall(redirect.StatusCode, nil)
		return fmt.Errorf("%w: 302 without Contact", ErrCallFailed)
	}
	contact, err := sipmsg.ParseNameAddr(contactVal)
	if err != nil {
		p.failCall(redirect.StatusCode, nil)
		return fmt.Errorf("%w: 302 Contact %q: %v", ErrCallFailed, contactVal, err)
	}
	target := contact.URI.HostPort()
	leg, err := p.directLeg(target)
	if err != nil {
		p.failCall(0, err)
		return fmt.Errorf("%w: dial redirect target %s: %v", ErrCallFailed, target, err)
	}
	defer leg.close()

	// Fresh INVITE addressed to the contact (RFC 3261 §8.1.3.4).
	direct := invite.Clone()
	direct.RequestURI = contact.URI
	if via, err := direct.TopVia(); err == nil {
		via.Params["branch"] = sipmsg.NewBranch()
		direct.RemoveFirst("Via")
		direct.Prepend("Via", via.String())
	}
	seq, _, _ := invite.CSeq()
	final, err := leg.request(direct, sipmsg.INVITE, &p.stats)
	if err != nil {
		p.failCall(0, err)
		return fmt.Errorf("%w: redirected invite: %w", ErrCallFailed, err)
	}
	if final.StatusCode != sipmsg.StatusOK {
		p.failCall(final.StatusCode, nil)
		return fmt.Errorf("%w: redirected invite rejected: %d", ErrCallFailed, final.StatusCode)
	}
	if err := leg.send(sipmsg.NewAck(direct, final, p.via())); err != nil {
		p.failCall(0, err)
		return fmt.Errorf("%w: redirected ack: %w", ErrCallFailed, err)
	}
	bye := direct.Clone()
	bye.Method = sipmsg.BYE
	bye.Set("CSeq", fmt.Sprintf("%d %s", seq+1, sipmsg.BYE))
	bye.Body = nil
	if to, found := final.Get("To"); found {
		bye.Set("To", to)
	}
	if via, err := bye.TopVia(); err == nil {
		via.Params["branch"] = sipmsg.NewBranch()
		bye.RemoveFirst("Via")
		bye.Prepend("Via", via.String())
	}
	finalBye, err := leg.request(bye, sipmsg.BYE, &p.stats)
	if err != nil {
		p.failCall(0, err)
		return fmt.Errorf("%w: redirected bye failed: %w", ErrCallFailed, err)
	}
	if finalBye.StatusCode != sipmsg.StatusOK {
		p.failCall(finalBye.StatusCode, nil)
		return fmt.Errorf("%w: redirected bye rejected: %d", ErrCallFailed, finalBye.StatusCode)
	}
	p.stats.CallsCompleted++
	p.recordLatency(time.Since(callStart))
	return nil
}

// leg is a request path to one peer, used when following redirects.
type leg interface {
	request(req *sipmsg.Message, method sipmsg.Method, stats *Stats) (*sipmsg.Message, error)
	send(m *sipmsg.Message) error
	close()
}

// directLeg opens a request path straight to target ("host:port").
func (p *Phone) directLeg(target string) (leg, error) {
	if p.udp != nil {
		return p.udp.directLeg(target)
	}
	return p.tcp.directLeg(target)
}

// dialogRouteSet extracts the dialog route set (reversed Record-Route) and
// remote target (Contact) from a 2xx response. Empty when the proxy did
// not record-route.
func dialogRouteSet(finalResp *sipmsg.Message, fallbackTarget sipmsg.URI) ([]string, sipmsg.URI) {
	rrs := finalResp.GetAll("Record-Route")
	if len(rrs) == 0 {
		return nil, sipmsg.URI{}
	}
	routeSet := make([]string, 0, len(rrs))
	for i := len(rrs) - 1; i >= 0; i-- {
		routeSet = append(routeSet, rrs[i])
	}
	target := fallbackTarget
	if v, ok := finalResp.Get("Contact"); ok {
		if na, err := sipmsg.ParseNameAddr(v); err == nil {
			target = na.URI
		}
	}
	return routeSet, target
}

// applyRouteSet rewrites an in-dialog request for loose routing: the
// Request-URI becomes the remote target and the route set becomes Route
// headers. No-op when the route set is empty.
func applyRouteSet(m *sipmsg.Message, routeSet []string, remoteTarget sipmsg.URI) {
	if len(routeSet) == 0 {
		return
	}
	m.RequestURI = remoteTarget
	m.Del("Route")
	for _, r := range routeSet {
		m.Add("Route", r)
	}
}

func (p *Phone) send(m *sipmsg.Message) error {
	if p.udp != nil {
		return p.udp.send(m)
	}
	return p.tcp.send(m)
}

// Close releases all sockets.
func (p *Phone) Close() error {
	if p.udp != nil {
		return p.udp.close()
	}
	return p.tcp.close()
}

// matchesTxn reports whether resp answers the transaction (callID, cseq,
// method).
func matchesTxn(resp *sipmsg.Message, callID string, seq uint32, method sipmsg.Method) bool {
	if resp.IsRequest || resp.CallID() != callID {
		return false
	}
	rs, rm, err := resp.CSeq()
	return err == nil && rs == seq && rm == method
}

// answer builds the callee-side responses for an incoming request.
// INVITE → [180, 200]; BYE → [200]; ACK → nil.
func answer(req *sipmsg.Message, user string, contact sipmsg.URI) []*sipmsg.Message {
	switch req.Method {
	case sipmsg.INVITE:
		tag := sipmsg.NewTag()
		ringing := sipmsg.NewResponse(req, sipmsg.StatusRinging, tag)
		ok := sipmsg.NewResponse(req, sipmsg.StatusOK, tag)
		// Both carry the same To tag so they describe one dialog.
		if rt := ringing.ToTag(); rt != "" {
			if to, found := ringing.Get("To"); found {
				ok.Set("To", to)
				_ = rt
			}
		}
		// Echo the Record-Route set so the caller learns the dialog's
		// route (RFC 3261 §12.1.1).
		for _, rr := range req.GetAll("Record-Route") {
			ringing.Add("Record-Route", rr)
			ok.Add("Record-Route", rr)
		}
		ok.Add("Contact", sipmsg.NameAddr{URI: contact}.String())
		return []*sipmsg.Message{ringing, ok}
	case sipmsg.BYE, sipmsg.CANCEL:
		return []*sipmsg.Message{sipmsg.NewResponse(req, sipmsg.StatusOK, sipmsg.NewTag())}
	case sipmsg.ACK:
		return nil
	default:
		return []*sipmsg.Message{sipmsg.NewResponse(req, sipmsg.StatusNotImplemented, sipmsg.NewTag())}
	}
}
