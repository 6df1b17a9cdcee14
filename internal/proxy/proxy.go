// Package proxy implements the SIP proxy engine: the transport- and
// architecture-independent message processing that OpenSER's worker
// processes execute. Given a parsed message and its origin, the engine
// performs the proxy steps of Ram et al. §2: respond 100 Trying (stateful
// INVITE), consult the location service, push/pop Via headers, forward the
// request or response, absorb retransmissions, and — over unreliable
// transports — arm retransmission timers via the transaction layer.
//
// The engine is the TU (transaction user) of RFC 3261 §17: every stateful
// request runs through the transaction layer's server/client machine pair,
// and what the engine does with a message is dictated by the typed
// disposition the machines return — absorb, replay, pass up, ACK — never
// re-derived from the message alone.
//
// The engine is shared by all workers; per-worker state (such as the fd
// cache) lives behind the Sender interface each architecture supplies.
package proxy

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/trace"
	"gosip/internal/transaction"
	"gosip/internal/userdb"
)

// borrowTrace threads the traced request's context onto a derived message
// (a response or forwarded clone) so spans recorded further down the send
// path — serialization, fd-cache hits, supervisor IPC — land on the
// originating call's timeline. The derived message only borrows the
// context. A request outside any transaction owns its context, which
// recycles with it when the receive loop releases it: its derived messages
// are sent before that. A request that created a transaction has handed the
// context to the transaction (see transaction.Table.Create), where it stays
// valid for as long as anything derived from the request can be replayed.
// Records after Finish are no-ops. trace.Of returns nil for untraced
// (sampled-out) messages, but every Context method is nil-safe and a
// borrowed nil is inert, so no call site needs a nil check.
func borrowTrace(dst, src *sipmsg.Message) *trace.Context {
	tc := trace.Of(src)
	dst.BorrowTrace(tc)
	return tc
}

// Sender delivers messages on behalf of the engine. There are two: the UDP
// server's writes datagrams; the one stream sender, shared by the tcp and
// threaded architectures, reuses or dials the destination connection and
// leaves the write to the architecture's handle policy — a direct write on
// threaded; on tcp the owner's direct write, or for another worker's
// connection the per-worker fd cache and a blocking fd request to the
// supervisor.
//
// Ownership: a Sender is only ever given messages the engine built (a
// response, a forwarded copy, an ACK or CANCEL of its own), never one that
// came out of sipmsg.Parse or a sipmsg.Reader. Built messages are not
// pooled and belong to the garbage collector, so an implementation may
// keep the pointer past the call — a capturing test double — without
// Retain. Parsed messages are recycled the moment their
// last reference is released and stay on the engine's side of this
// interface.
type Sender interface {
	// ToOrigin sends a response back where its request came from (a UDP
	// source address or a TCP connection identity).
	ToOrigin(origin any, m *sipmsg.Message) error
	// ToBinding forwards a request toward a registered binding. TCP
	// senders prefer the connection the binding registered over (its
	// Source address) and fall back to dialing the contact, mirroring
	// OpenSER's connection reuse.
	ToBinding(b location.Binding, m *sipmsg.Message) error
	// ToAddr sends a message toward a host:port over the named transport
	// ("UDP"/"TCP"), reusing or establishing a connection as needed.
	ToAddr(transport, hostport string, m *sipmsg.Message) error
}

// Mode selects the server role (§2: proxy vs redirect server).
type Mode int

// Server roles.
const (
	// ModeProxy forwards requests toward the callee (the paper's subject).
	ModeProxy Mode = iota
	// ModeRedirect removes the server from the transaction: INVITEs are
	// answered with 302 Moved Temporarily carrying the registered contact,
	// and the caller contacts the callee directly.
	ModeRedirect
)

// Config parameterizes an Engine.
type Config struct {
	// Mode selects proxying (default) or redirection.
	Mode Mode
	// Stateful selects the paper's stateful-proxy configuration: 100
	// Trying, transaction state, retransmission. Stateless proxies just
	// forward.
	Stateful bool
	// Reliable marks the transport as guaranteeing delivery (TCP); when
	// true the retransmission timers are never armed ("the timer process
	// is superfluous for TCP").
	Reliable bool
	// Via describes this proxy's own Via header (sent-by and transport).
	ViaTransport string
	ViaHost      string
	ViaPort      int
	// Domain is the domain this proxy is responsible for.
	Domain string
	// Auth enables digest authentication: REGISTERs are challenged with
	// 401, other requests with 407, and verification costs a user-database
	// lookup per request (the configuration Nahum et al. found most
	// expensive).
	Auth bool
	// Routes maps foreign domains, lowercased, to next-hop proxies (build
	// it with ParseRoutes). A request whose Request-URI host is not this
	// proxy's domain and has a route entry is forwarded to that proxy
	// rather than resolved locally — the multi-proxy message routing of §2.
	Routes map[string]sipmsg.URI
	// RecordRoute makes the proxy insert a Record-Route header on
	// dialog-forming requests so in-dialog requests (ACK, BYE) route back
	// through it via Route headers (RFC 3261 §16.6/§12.2) instead of
	// location-service lookups.
	RecordRoute bool
	// RetryAfter, when positive, is advertised on locally generated 503
	// responses (RFC 3261 §21.5.4) so clients back off instead of
	// retransmitting into an overloaded or degraded server.
	RetryAfter time.Duration
}

// ParseRoutes turns static next hops, "host:port" keyed by domain, into
// Config.Routes: each hop parsed once, each domain lowercased. The error
// names the bad entry.
func ParseRoutes(routes map[string]string) (map[string]sipmsg.URI, error) {
	out := make(map[string]sipmsg.URI, len(routes))
	for domain, hop := range routes {
		u, err := sipmsg.ParseURI("sip:" + hop)
		if err == nil && domain == "" {
			err = fmt.Errorf("empty domain")
		}
		if err != nil {
			return nil, fmt.Errorf("proxy: route %q=%q: %w", domain, hop, err)
		}
		out[strings.ToLower(domain)] = u
	}
	return out, nil
}

// Engine is the proxy core.
type Engine struct {
	cfg  Config
	loc  *location.Service
	db   *userdb.DB
	txns *transaction.Table

	// via is this proxy's own Via without a branch; viaPrefix is its value
	// up to and including "branch=", which newVia completes.
	via       sipmsg.Via
	viaPrefix string

	// timerSender delivers retransmissions and timeouts from the timer
	// goroutine. timers is the transaction table's TimerHandler: the engine
	// itself over an unreliable transport with a timer sender, else nil, so
	// the table arms no timer ("the timer process is superfluous for TCP").
	timerSender Sender
	timers      transaction.TimerHandler

	msgs           *metrics.Counter
	drops          *metrics.Counter
	absorbed       *metrics.Counter
	authChallenges *metrics.Counter
	dialogRouted   *metrics.Counter
	procTime       *metrics.Timer
	sendTime       *metrics.Timer
	procHist       *metrics.Histogram
	sendHist       *metrics.Histogram
	txnHist        *metrics.Histogram
}

// NewEngine assembles an engine. txns may be nil for a stateless proxy.
func NewEngine(cfg Config, loc *location.Service, db *userdb.DB, txns *transaction.Table, profile *metrics.Profile) *Engine {
	own := sipmsg.Via{Transport: cfg.ViaTransport, Host: cfg.ViaHost, Port: cfg.ViaPort}
	return &Engine{
		cfg:            cfg,
		via:            own,
		viaPrefix:      own.String() + ";branch=",
		loc:            loc,
		db:             db,
		txns:           txns,
		msgs:           profile.Counter(metrics.MetricMsgsProcessed),
		drops:          profile.Counter("proxy.drops"),
		absorbed:       profile.Counter("proxy.absorbed"),
		authChallenges: profile.Counter("proxy.auth_challenges"),
		dialogRouted:   profile.Counter("proxy.dialog_routed"),
		procTime:       profile.Timer(metrics.MetricProcessTime),
		sendTime:       profile.Timer(metrics.MetricSendTime),
		procHist:       profile.Histogram(metrics.StageProcess),
		sendHist:       profile.Histogram(metrics.StageSend),
		txnHist:        profile.Histogram(metrics.StageTxnMatch),
	}
}

// SetTimerSender installs the sender used by retransmission callbacks
// (typically a UDP server socket, usable from any goroutine). Over an
// unreliable transport it turns the transaction timers on.
func (e *Engine) SetTimerSender(s Sender) {
	e.timerSender = s
	e.timers = nil
	if !e.cfg.Reliable && s != nil {
		e.timers = e
	}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// newVia renders this proxy's Via header value with a fresh branch and the
// key the downstream responses of a request with CSeq method come back
// under, in one string: the Via is its head, and the key, in
// sipmsg.JoinTransactionKey's "branch|METHOD" form, its tail.
func (e *Engine) newVia(method sipmsg.Method) (via, key string) {
	var b [128]byte
	buf := sipmsg.AppendBranch(append(b[:0], e.viaPrefix...))
	end := len(buf)
	buf = append(append(buf, '|'), sipmsg.TransactionMethod(method)...)
	s := string(buf)
	return s[:end], s[len(e.viaPrefix):]
}

// txTrace returns the timeline of the request that created tx (nil when the
// call is not traced; every Context method is nil-safe).
func txTrace(tx *transaction.Transaction) *trace.Context {
	tc, _ := tx.TraceContext().(*trace.Context)
	return tc
}

// Handle processes one message. It is called from a worker's event loop;
// the time spent is accounted as worker processing time.
func (e *Engine) Handle(s Sender, m *sipmsg.Message, origin any) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		e.procTime.AddDuration(d)
		e.procHist.Record(d)
	}()
	e.msgs.Inc()

	if m.IsRequest {
		e.handleRequest(s, m, origin)
	} else {
		e.handleResponse(s, m)
	}
}

func (e *Engine) handleRequest(s Sender, m *sipmsg.Message, origin any) {
	if !e.requireAuth(s, m, origin) {
		return
	}
	switch m.Method {
	case sipmsg.REGISTER:
		e.handleRegister(s, m, origin)
	case sipmsg.ACK:
		if e.cfg.Mode == ModeRedirect {
			// The ACK for our 3xx terminates the redirected transaction.
			return
		}
		e.handleAck(s, m)
	case sipmsg.CANCEL:
		e.handleCancel(s, m, origin)
	case sipmsg.INVITE, sipmsg.BYE, sipmsg.OPTIONS:
		if e.cfg.Mode == ModeRedirect {
			e.redirect(s, m, origin)
			return
		}
		if e.cfg.Stateful {
			e.forwardStateful(s, m, origin)
		} else {
			e.forwardStateless(s, m, origin)
		}
	default:
		e.reply(s, m, origin, sipmsg.StatusNotImplemented)
	}
}

// handleAck routes an ACK through the INVITE server machine. An ACK whose
// branch matches an INVITE transaction we answered with a non-2xx final is
// the transaction layer's own traffic (§17.2.1): it confirms the final,
// stops the Timer G retransmission cycle, and goes no further. An ACK for
// a 2xx is end-to-end and is forwarded statelessly, as is any ACK with no
// matching transaction (e.g. after the absorb window closed).
func (e *Engine) handleAck(s Sender, m *sipmsg.Message) {
	if e.cfg.Stateful && e.txns != nil {
		if branch, err := m.TopViaBranch(); err == nil && branch != "" {
			if tx := e.txns.MatchParts(branch, sipmsg.ACK); tx != nil {
				if e.txns.OnAck(tx) == transaction.AckAbsorbed {
					e.absorbed.Inc()
					tc := trace.Of(m)
					tc.Span(trace.StageState, time.Now())
					tc.Finish(0)
					return
				}
			}
		}
	}
	// An ACK draws no response, so nothing needs routing back to its origin.
	e.forwardStateless(s, m, nil)
}

// redirect answers a request with 302 Moved Temporarily and the registered
// contact, removing this server from the rest of the transaction (§2's
// redirection server).
func (e *Engine) redirect(s Sender, m *sipmsg.Message, origin any) {
	binding, ok := e.routeTraced(m, false)
	if !ok {
		e.reply(s, m, origin, sipmsg.StatusNotFound)
		return
	}
	resp := sipmsg.NewResponse(m, 302, sipmsg.NewTag())
	resp.Reason = "Moved Temporarily"
	resp.Add("Contact", sipmsg.NameAddr{URI: binding.Contact}.String())
	tc := borrowTrace(resp, m)
	e.sendToOrigin(s, origin, resp)
	tc.Finish(302)
}

// handleCancel implements RFC 3261 §9.2 for the stateful proxy. The CANCEL
// is its own server transaction (§17.2.3) keyed branch|CANCEL, answered
// 200 whenever it matches an INVITE transaction — even one that already
// answered, where the CANCEL then has no further effect. While the INVITE
// is still proceeding, the proxy completes it upstream with 487 Request
// Terminated and propagates the CANCEL downstream; if the CANCEL raced in
// before the INVITE left the proxy, RequestCancel defers the downstream
// leg to the forwarding worker (or suppresses the forward entirely), so
// the cancel is never silently lost.
func (e *Engine) handleCancel(s Sender, m *sipmsg.Message, origin any) {
	if !e.cfg.Stateful || e.txns == nil {
		e.reply(s, m, origin, sipmsg.StatusNotImplemented)
		return
	}
	branch, method, err := m.TransactionID()
	if err != nil {
		e.reply(s, m, origin, sipmsg.StatusBadRequest)
		return
	}
	ctx, isRetransmit := e.txns.Create(sipmsg.JoinTransactionKey(branch, method), m, origin)
	if isRetransmit {
		e.replayLast(s, ctx, trace.Of(m))
		return
	}
	inv := e.txns.MatchParts(branch, sipmsg.INVITE)
	if inv == nil {
		e.finalizeLocal(s, ctx, m, sipmsg.StatusTransactionNotFound)
		return
	}
	// §9.2: the CANCEL transaction answers 200 regardless of whether there
	// is anything left to cancel.
	e.finalizeLocal(s, ctx, m, sipmsg.StatusOK)
	fwd, deferred, alreadyFinal := inv.RequestCancel()
	defer fwd.Release()
	if alreadyFinal {
		return
	}
	// Another worker may send the INVITE's final between RequestCancel and
	// here; the request is then already given back and there is nothing
	// left to answer 487 to.
	invReq := inv.Request()
	if invReq == nil {
		return
	}
	resp := sipmsg.NewResponse(invReq, sipmsg.StatusRequestTerminated, sipmsg.NewTag())
	invReq.Release()
	txc := txTrace(inv)
	resp.BorrowTrace(txc)
	if e.completeUpstream(s, inv, resp) {
		txc.Finish(sipmsg.StatusRequestTerminated)
	}
	if deferred || fwd == nil {
		// The INVITE is not on the wire yet: MarkForwardSent hands the
		// downstream CANCEL to the forwarding worker (or the forward is
		// suppressed altogether now that the transaction has its final).
		return
	}
	e.cancelDownstream(s, inv, fwd)
}

// replayLast answers a retransmitted request as the server machine directs:
// with the transaction's last response, or not at all. tc is the
// duplicate's own timeline, which ends here; the original request's keeps
// tracking the transaction.
func (e *Engine) replayLast(s Sender, tx *transaction.Transaction, tc *trace.Context) {
	status := 0
	if last := e.txns.OnRetransmit(tx); last != nil {
		e.sendToOrigin(s, tx.Origin, last)
		status = last.StatusCode
		last.Release()
	}
	tc.Finish(status)
}

func (e *Engine) handleRegister(s Sender, m *sipmsg.Message, origin any) {
	// Validate the user against persistent storage (the MySQL stand-in),
	// as OpenSER does on registration.
	if to, ok := m.Get("To"); ok {
		if na, err := sipmsg.ParseNameAddr(to); err == nil && e.db != nil {
			if _, err := e.db.LookupTraced(trace.Of(m), na.URI.User, na.URI.Host); err != nil {
				e.reply(s, m, origin, sipmsg.StatusNotFound)
				return
			}
		}
	}
	source := ""
	if src, ok := origin.(interface{ String() string }); ok {
		source = src.String()
	}
	resp := e.loc.HandleRegister(m, source, e.cfg.ViaTransport, time.Now())
	tc := borrowTrace(resp, m)
	e.sendToOrigin(s, origin, resp)
	tc.Finish(resp.StatusCode)
}

// ownRouteURI is the Record-Route entry this proxy inserts.
func (e *Engine) ownRouteURI() sipmsg.URI {
	return sipmsg.URI{Host: e.cfg.ViaHost, Port: e.cfg.ViaPort, Params: map[string]string{"lr": ""}}
}

// popOwnRoute removes the topmost Route header if it names this proxy,
// reporting whether the request was dialog-routed through us.
func (e *Engine) popOwnRoute(m *sipmsg.Message) bool {
	v, ok := m.Get("Route")
	if !ok {
		return false
	}
	na, err := sipmsg.ParseNameAddr(v)
	if err != nil {
		return false
	}
	if !strings.EqualFold(na.URI.Host, e.cfg.ViaHost) || na.URI.Port != e.cfg.ViaPort {
		return false
	}
	m.RemoveFirst("Route")
	e.dialogRouted.Inc()
	return true
}

// route resolves the request's target, in RFC 3261 §16 order:
//
//  1. a remaining Route header (after popping our own) names the next hop;
//  2. a Request-URI in this proxy's domain is resolved via the location
//     service;
//  3. a foreign domain with a static route entry goes to that proxy (§2's
//     proxy sequences);
//  4. a request that was dialog-routed through us (dialogRouted) is sent
//     directly to its Request-URI — the loose-routing final hop.
func (e *Engine) route(m *sipmsg.Message, dialogRouted bool) (location.Binding, bool) {
	if v, ok := m.Get("Route"); ok {
		na, err := sipmsg.ParseNameAddr(v)
		if err != nil {
			return location.Binding{}, false
		}
		return location.Binding{Contact: na.URI, Transport: e.cfg.ViaTransport}, true
	}
	host := strings.ToLower(m.RequestURI.Host)
	if host != strings.ToLower(e.cfg.Domain) {
		if hop, ok := e.cfg.Routes[host]; ok {
			return location.Binding{Contact: hop, Transport: e.cfg.ViaTransport}, true
		}
		if dialogRouted {
			// Final hop of a loose route: deliver to the Request-URI.
			return location.Binding{Contact: m.RequestURI, Transport: e.cfg.ViaTransport}, true
		}
		return location.Binding{}, false
	}
	// Freshest binding only, resolved without materializing the AOR key:
	// this runs once per routed request, so it must not allocate.
	return e.loc.LookupOne(m.RequestURI, time.Now())
}

// routeTraced is route with the resolution recorded as the request's
// location span.
func (e *Engine) routeTraced(m *sipmsg.Message, dialogRouted bool) (location.Binding, bool) {
	t0 := time.Now()
	b, ok := e.route(m, dialogRouted)
	trace.Of(m).Span(trace.StageLocation, t0)
	return b, ok
}

// forwardStateful implements the paper's §2 invite/bye sequence on the
// proxy side.
func (e *Engine) forwardStateful(s Sender, m *sipmsg.Message, origin any) {
	upBranch, cseqMethod, err := m.TransactionID()
	if err != nil {
		e.reply(s, m, origin, sipmsg.StatusBadRequest)
		return
	}
	tc := trace.Of(m)
	t0 := time.Now()
	tx, isRetransmit := e.txns.Create(sipmsg.JoinTransactionKey(upBranch, cseqMethod), m, origin)
	d := time.Since(t0)
	e.txnHist.Record(d)
	tc.Add(trace.StageTxn, t0, d)
	if isRetransmit {
		// Absorb through the server machine: replay the last response if
		// the machine says so (the state maintenance that "decreases the
		// amount of retransmitted messages the server must process").
		e.replayLast(s, tx, tc)
		return
	}

	// Step 2: a stateful proxy responds to the INVITE with 100 Trying.
	if m.Method == sipmsg.INVITE {
		trying := sipmsg.NewResponse(m, sipmsg.StatusTrying, "")
		tx.RecordUpstreamResponse(trying)
		borrowTrace(trying, m)
		e.sendToOrigin(s, origin, trying)
	}

	maxForwards := m.MaxForwards(70)
	if maxForwards <= 0 {
		e.finalizeLocal(s, tx, m, sipmsg.StatusTooManyHops)
		return
	}

	dialogRouted := e.popOwnRoute(m)
	binding, ok := e.routeTraced(m, dialogRouted)
	if !ok {
		e.finalizeLocal(s, tx, m, sipmsg.StatusNotFound)
		return
	}

	// A CANCEL that raced in during routing has already answered the
	// transaction upstream with 487: suppress the forward entirely — the
	// cleanest resolution of the CANCEL/forward race.
	if tx.State() != transaction.StateProceeding {
		tc.Finish(0)
		return
	}

	// Build the forwarded request: decrement Max-Forwards, push our Via.
	// The responses come back keyed on our branch and the CSeq method.
	recordRoute := e.cfg.RecordRoute && m.Method == sipmsg.INVITE
	fwd, downKey := e.forwardCopy(m, cseqMethod, maxForwards, recordRoute)
	e.txns.SetForwarded(tx, downKey, fwd, binding)

	if err := e.sendToBinding(s, binding, fwd); err != nil {
		e.finalizeLocal(s, tx, m, sipmsg.StatusServiceUnavail)
		return
	}

	// The forward is on the wire. If a CANCEL raced in mid-send, we own
	// the downstream CANCEL now — this ordering guarantees the CANCEL is
	// never sent before the INVITE it cancels.
	if tx.MarkForwardSent() {
		e.cancelDownstream(s, tx, fwd)
	}

	// Step 2 makes the proxy responsible for delivery: retransmit over
	// unreliable transports until a response arrives (Timer A/E), failing
	// upstream with 408 when Timer B/F fires.
	e.txns.ArmClientTimers(tx, e.timers)
}

// RetransmitRequest, RequestTimedOut and RetransmitFinal make the engine the
// transaction table's TimerHandler. They run on the timer goroutine and send
// through the timer sender; the transaction may have been answered since
// the timer fired, in which case it no longer holds what they ask it for.

// RetransmitRequest sends the forwarded request downstream again.
func (e *Engine) RetransmitRequest(tx *transaction.Transaction, fwd *sipmsg.Message) {
	route, ok := tx.DownRoute().(location.Binding)
	if !ok {
		return
	}
	// Close out the downstream wait before the retransmit span so waiting
	// time keeps accumulating across retransmissions.
	now := time.Now()
	tc := txTrace(tx)
	tc.Gap(trace.StageWaitDown, now)
	_ = e.timerSender.ToBinding(route, fwd)
	tc.Span(trace.StageRetransmit, now)
}

// RequestTimedOut answers the transaction upstream with 408.
func (e *Engine) RequestTimedOut(tx *transaction.Transaction) {
	req := tx.Request()
	if req == nil {
		return
	}
	defer req.Release()
	txTrace(tx).Gap(trace.StageWaitDown, time.Now())
	e.finalizeLocal(e.timerSender, tx, req, sipmsg.StatusRequestTimeout)
}

// RetransmitFinal sends the non-2xx INVITE final upstream again.
func (e *Engine) RetransmitFinal(tx *transaction.Transaction, final *sipmsg.Message) {
	now := time.Now()
	e.sendToOrigin(e.timerSender, tx.Origin, final)
	txTrace(tx).Span(trace.StageRetransmit, now)
}

// forwardCopy builds the copy of request m that goes downstream — Max-Forwards
// decremented, this proxy's Via (and Record-Route) on top — and returns it
// with the transaction key its responses will carry (see newVia), for CSeq
// method cseqMethod. The copy's header slice is allocated once, with room
// for what is pushed onto it.
func (e *Engine) forwardCopy(m *sipmsg.Message, cseqMethod sipmsg.Method, maxForwards int, recordRoute bool) (fwd *sipmsg.Message, downKey string) {
	extra := 1
	if recordRoute {
		extra = 2
	}
	fwd = m.CloneWithHeadroom(extra)
	borrowTrace(fwd, m)
	fwd.Set("Max-Forwards", strconv.Itoa(maxForwards-1)) // no allocation below 100
	via, downKey := e.newVia(cseqMethod)
	fwd.Prepend("Via", via)
	if recordRoute {
		fwd.Prepend("Record-Route", sipmsg.NameAddr{URI: e.ownRouteURI()}.String())
	}
	return fwd, downKey
}

// finalizeLocal completes the transaction with a final response generated
// here from req, the request that created it, and sent upstream through the
// given sender (a worker's sender, or the timer sender from timer-goroutine
// contexts).
func (e *Engine) finalizeLocal(s Sender, tx *transaction.Transaction, req *sipmsg.Message, code int) {
	resp := e.localFinal(req, code)
	tc := txTrace(tx)
	resp.BorrowTrace(tc)
	e.completeUpstream(s, tx, resp)
	tc.Finish(code)
}

// completeUpstream pushes a final response through the server machine and
// upstream. A non-2xx INVITE final enters the §17.2.1 ACK wait, where the
// table retransmits it through RetransmitFinal on Timer G until the ACK
// confirms it or Timer H gives up. Returns false when the transaction
// already answered — the duplicate final is absorbed, which the state span
// records on the call's timeline.
func (e *Engine) completeUpstream(s Sender, tx *transaction.Transaction, resp *sipmsg.Message) bool {
	t0 := time.Now()
	ok := e.txns.SendFinal(tx, resp, e.timers)
	txTrace(tx).Span(trace.StageState, t0)
	if !ok {
		e.absorbed.Inc()
		return false
	}
	e.sendToOrigin(s, tx.Origin, resp)
	return true
}

// ackDownstream acknowledges a downstream non-2xx INVITE final on the
// transaction layer's behalf (§17.1.1.3): the ACK reuses the forwarded
// INVITE's branch (same transaction) and follows the same route. The
// transaction holds both until Timer D for exactly this.
func (e *Engine) ackDownstream(s Sender, tx *transaction.Transaction, resp *sipmsg.Message) {
	fwd := tx.Forwarded()
	if fwd == nil {
		return
	}
	defer fwd.Release()
	binding, ok := tx.DownRoute().(location.Binding)
	if !ok {
		return
	}
	ack := sipmsg.NewAck(fwd, resp, e.via)
	ack.BorrowTrace(txTrace(tx))
	_ = e.sendToBinding(s, binding, ack)
}

// cancelDownstream derives a CANCEL from the forwarded INVITE per §9.1 —
// same Request-URI, From, To, Call-ID, CSeq number, and top Via (same
// branch: the CANCEL targets the INVITE's transaction at the next hop) —
// and sends it along the INVITE's route. A CANCEL must not carry a body,
// body-describing headers, or the INVITE's Record-Route, and it is a
// single-hop request, so only our own Via survives the clone.
func (e *Engine) cancelDownstream(s Sender, tx *transaction.Transaction, fwd *sipmsg.Message) {
	binding, ok := tx.DownRoute().(location.Binding)
	if !ok {
		return
	}
	cancel := fwd.Clone()
	cancel.Method = sipmsg.CANCEL
	seq, _, _ := fwd.CSeq()
	cancel.Set("CSeq", fmt.Sprintf("%d %s", seq, sipmsg.CANCEL))
	cancel.Body = nil
	cancel.Del("Content-Type")
	cancel.Del("Content-Length")
	cancel.Del("Record-Route")
	if top, err := fwd.TopVia(); err == nil {
		cancel.Del("Via")
		cancel.Add("Via", top.String())
	}
	cancel.BorrowTrace(txTrace(tx))
	_ = e.sendToBinding(s, binding, cancel)
}

// localFinal builds a locally generated final response to req, adding
// Retry-After to 503s when configured so clients defer their retry instead
// of hammering a server that is already shedding load.
func (e *Engine) localFinal(req *sipmsg.Message, code int) *sipmsg.Message {
	resp := sipmsg.NewResponse(req, code, sipmsg.NewTag())
	if code == sipmsg.StatusServiceUnavail && e.cfg.RetryAfter > 0 {
		secs := int((e.cfg.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		resp.Add("Retry-After", strconv.Itoa(secs))
	}
	return resp
}

// forwardStateless forwards a request with no transaction state: the
// caller retains responsibility for reliability (§2's stateless proxy).
// origin is where the request arrived from, or nil when no response will
// need to find its way back there.
func (e *Engine) forwardStateless(s Sender, m *sipmsg.Message, origin any) {
	// The proxy's involvement ends when the forward leaves (or is dropped):
	// finish the timeline unconditionally. Status 0 = no local response.
	tc := trace.Of(m)
	defer tc.Finish(0)
	maxForwards := m.MaxForwards(70)
	if maxForwards <= 0 {
		e.drops.Inc()
		return
	}
	dialogRouted := e.popOwnRoute(m)
	binding, ok := e.routeTraced(m, dialogRouted)
	if !ok {
		e.drops.Inc()
		return
	}
	fwd, _ := e.forwardCopy(m, m.Method, maxForwards, false)
	if origin != nil && e.cfg.ViaTransport != "UDP" {
		stampReceived(fwd, origin)
	}
	if err := e.sendToBinding(s, binding, fwd); err != nil {
		e.drops.Inc()
	}
}

// stampReceived records the remote address of the stream connection a
// request arrived on as received/rport parameters of the upstream Via — the
// one below the Via this proxy just pushed (RFC 3261 §18.2.1, RFC 3581).
// A stateless proxy keeps no other memory of that connection, and §18.2.2
// sends a response over a reliable transport back on the connection its
// request came in on, which a caller's Via sent-by (typically its listener)
// does not name. The stream servers key connections by remote address, so
// relaying to received:rport finds the caller's open connection.
func stampReceived(fwd *sipmsg.Message, origin any) {
	src, ok := origin.(fmt.Stringer)
	if !ok {
		return
	}
	host, port, err := net.SplitHostPort(src.String())
	if err != nil {
		return
	}
	ours := true
	for i := range fwd.Headers {
		h := &fwd.Headers[i]
		if h.Name != "Via" {
			continue
		}
		if ours {
			ours = false
			continue
		}
		v, err := sipmsg.ParseVia(h.Value)
		if err != nil {
			return
		}
		if v.Params == nil {
			v.Params = make(map[string]string, 2)
		}
		v.Params["received"] = host
		v.Params["rport"] = port
		h.Value = v.String()
		fwd.Invalidate()
		return
	}
}

// responseTarget is where a stateless proxy relays a response whose next
// Via is v: received:rport when an earlier hop stamped them (rport falling
// back to the sent-by port), else the sent-by itself.
func responseTarget(v sipmsg.Via) string {
	host := v.Params["received"]
	if host == "" {
		return v.SentBy()
	}
	port := v.Params["rport"]
	if port == "" {
		_, port, _ = net.SplitHostPort(v.SentBy())
	}
	return net.JoinHostPort(host, port)
}

// handleResponse pops our Via and forwards the response upstream — or
// absorbs it, as the client machine directs: downstream 100s are hop-by-hop
// (§16.7), retransmitted non-2xx finals were already answered, and non-2xx
// INVITE finals are ACKed downstream by the transaction layer itself. A
// retransmitted INVITE 2xx is relayed like the first.
func (e *Engine) handleResponse(s Sender, m *sipmsg.Message) {
	branch, err := m.TopViaBranch()
	if err != nil || branch == "" {
		e.drops.Inc()
		return
	}
	// The response's transaction key is OUR branch (the Via we pushed).
	_, method, err := m.CSeq()
	if err != nil {
		e.drops.Inc()
		return
	}

	if !e.cfg.Stateful || e.txns == nil {
		// Stateless: relay toward the next Via.
		fwd := m.CloneWithoutTopVia() // non-nil: TopViaBranch found a Via
		next, err := fwd.TopVia()
		if err != nil {
			e.drops.Inc()
			return
		}
		if err := e.sendToAddr(s, next.Transport, responseTarget(next), fwd); err != nil {
			e.drops.Inc()
		}
		return
	}

	if method == sipmsg.CANCEL {
		// The response to our own downstream CANCEL. The CANCEL leg is
		// fire-and-forget (§9.1: a failed CANCEL changes nothing) and its
		// transaction is the next hop's, not ours: consume it here so it
		// can never complete the INVITE transaction it shares a branch with.
		e.absorbed.Inc()
		return
	}

	// MatchParts assembles branch|method in a stack buffer: the per-response
	// key string the old path allocated is gone from the hot path entirely.
	t0 := time.Now()
	tx := e.txns.MatchParts(branch, method)
	d := time.Since(t0)
	e.txnHist.Record(d)
	if tx == nil {
		// Late or duplicate final response after linger: drop.
		e.drops.Inc()
		return
	}
	// The response continues its request's timeline: the gap since the last
	// recorded span (forward send or retransmit) is the downstream wait, and
	// it must land before the match span so the two don't overlap.
	tc := txTrace(tx)
	tc.Gap(trace.StageWaitDown, t0)
	tc.Add(trace.StageTxn, t0, d)

	fwd := m.CloneWithoutTopVia() // non-nil: the top Via matched the transaction
	// Unconditional: trace.Of is nil for sampled-out requests, but Context
	// methods are nil-safe and borrowing a nil is inert (see borrowTrace).
	fwd.BorrowTrace(tc)

	disp := e.txns.OnClientResponse(tx, fwd)
	switch disp {
	case transaction.RespAbsorb100:
		// §16.7: 100 Trying is hop-by-hop; we answered upstream with our
		// own. It stays recorded as lastResp for retransmit replay.
		e.absorbed.Inc()
	case transaction.RespPassProvisional:
		e.sendToOrigin(s, tx.Origin, fwd)
	case transaction.RespPassFinal, transaction.RespPassFinalAck:
		if disp == transaction.RespPassFinalAck {
			e.ackDownstream(s, tx, fwd)
		}
		if e.completeUpstream(s, tx, fwd) {
			tc.Finish(fwd.StatusCode)
		}
	case transaction.RespDupFinalAck:
		// A retransmitted non-2xx INVITE final: our ACK was lost — re-ACK,
		// but the upstream replay is Timer G's job, not this response's.
		e.ackDownstream(s, tx, fwd)
		e.absorbed.Inc()
	case transaction.RespRelay2xx:
		// The callee resends its 2xx until the caller's ACK reaches it;
		// only the caller can stop that, so the 2xx goes to it every time.
		e.sendToOrigin(s, tx.Origin, fwd)
	default: // RespAbsorb
		e.absorbed.Inc()
	}
}

// reply sends a locally generated response for a request outside any
// transaction.
func (e *Engine) reply(s Sender, req *sipmsg.Message, origin any, code int) {
	tag := ""
	if code != sipmsg.StatusTrying {
		tag = sipmsg.NewTag()
	}
	resp := sipmsg.NewResponse(req, code, tag)
	tc := borrowTrace(resp, req)
	e.sendToOrigin(s, origin, resp)
	// reply is only used for locally terminated requests, so the local
	// response ends the timeline.
	tc.Finish(code)
}

func (e *Engine) sendToOrigin(s Sender, origin any, m *sipmsg.Message) {
	start := time.Now()
	err := s.ToOrigin(origin, m)
	d := time.Since(start)
	e.sendTime.AddDuration(d)
	e.sendHist.Record(d)
	trace.Of(m).Add(trace.StageSend, start, d)
	if err != nil {
		e.drops.Inc()
	}
}

func (e *Engine) sendToBinding(s Sender, b location.Binding, m *sipmsg.Message) error {
	start := time.Now()
	err := s.ToBinding(b, m)
	d := time.Since(start)
	e.sendTime.AddDuration(d)
	e.sendHist.Record(d)
	trace.Of(m).Add(trace.StageSend, start, d)
	return err
}

func (e *Engine) sendToAddr(s Sender, transport, hostport string, m *sipmsg.Message) error {
	start := time.Now()
	err := s.ToAddr(transport, hostport, m)
	d := time.Since(start)
	e.sendTime.AddDuration(d)
	e.sendHist.Record(d)
	trace.Of(m).Add(trace.StageSend, start, d)
	return err
}

// Describe renders the engine configuration for logs.
func (e *Engine) Describe() string {
	mode := "stateless"
	if e.cfg.Stateful {
		mode = "stateful"
	}
	return fmt.Sprintf("%s proxy via %s %s:%d", mode, e.cfg.ViaTransport, e.cfg.ViaHost, e.cfg.ViaPort)
}
