// Package transaction implements the stateful proxy transaction layer of
// RFC 3261 §17 as used by OpenSER in the paper's experiments: the proxy
// stores every ongoing transaction in shared state, absorbs retransmitted
// requests by replaying the last response, matches responses to the
// forwarded branch, and — over unreliable transports — retransmits
// unacknowledged forwards with exponential backoff.
//
// Each proxied request composes two of the four §17 machines in fsm.go: a
// server machine facing upstream (INVITE §17.2.1 or non-INVITE §17.2.2)
// and a client machine facing downstream (§17.1.1 or §17.1.2). The Table
// wires their Step output to the timing wheel (timers A–K), the sharded
// store, and the pooled messages; the proxy (the TU) only sees the typed
// dispositions in events.go.
//
// The transaction table is the "shared transaction state" both the UDP and
// TCP architectures synchronize on (Figures 1 and 2); it is sharded to
// keep lock contention realistic rather than pathological.
package transaction

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
)

// State is a transaction's collapsed lifecycle state, the view the proxy
// path and the overload controller's pending gauge key off. The full
// per-machine states live in Transaction.srv/cli as FSMState.
type State int32

// Collapsed proxy transaction states.
const (
	StateProceeding State = iota // forwarded, awaiting final response
	StateCompleted               // final response sent upstream
	StateTerminated              // removed from the table
)

func (s State) String() string {
	switch s {
	case StateProceeding:
		return "proceeding"
	case StateCompleted:
		return "completed"
	case StateTerminated:
		return "terminated"
	}
	return "unknown"
}

// Config tunes the timer behaviour and the table's shard geometry.
type Config struct {
	// T1 is the RFC 3261 round-trip estimate; retransmissions start at T1
	// and double. Default 500ms.
	T1 time.Duration
	// T2 caps the retransmission interval for non-INVITE requests (Timer E)
	// and INVITE final responses (Timer G). Default 4s.
	T2 time.Duration
	// TimerB caps the client retransmission phase (Timer B for INVITE,
	// Timer F for non-INVITE); the transaction fails upstream with 408 when
	// it fires. Default 64*T1.
	TimerB time.Duration
	// TimerD is how long an INVITE server transaction that answered with a
	// non-2xx final stays matchable, bounding the Completed/Confirmed
	// absorb window (timers D and I collapsed onto table removal).
	// Default 32s.
	TimerD time.Duration
	// TimerH caps how long the INVITE server machine retransmits a non-2xx
	// final waiting for the ACK. Default 64*T1.
	TimerH time.Duration
	// Linger is how long any other completed transaction stays matchable to
	// absorb retransmitted requests (timers J and K collapsed onto table
	// removal). Default 2s.
	Linger time.Duration
	// Shards is the transaction-table shard count, rounded up to a power
	// of two. 0 picks the next power of two at or above 4×GOMAXPROCS
	// (never below 16, the historical fixed count), so the lock population
	// scales with the parallelism that contends on it.
	Shards int
}

// DefaultShards returns the shard count a zero Config.Shards resolves to.
func DefaultShards() int {
	return ceilPow2(max(16, 4*runtime.GOMAXPROCS(0)))
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (c Config) withDefaults() Config {
	if c.T1 <= 0 {
		c.T1 = 500 * time.Millisecond
	}
	if c.T2 <= 0 {
		c.T2 = 4 * time.Second
	}
	if c.TimerB <= 0 {
		c.TimerB = 64 * c.T1
	}
	if c.TimerD <= 0 {
		c.TimerD = 32 * time.Second
	}
	if c.TimerH <= 0 {
		c.TimerH = 64 * c.T1
	}
	if c.Linger <= 0 {
		c.Linger = 2 * time.Second
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards()
	} else {
		c.Shards = ceilPow2(c.Shards)
	}
	return c
}

// Transaction is one proxied request in flight.
//
// What it holds is set by its state, not by its longest timer (the table is
// in DESIGN.md §5): while Proceeding, both request legs, the downstream
// route and the freshest provisional; once a 2xx or a non-INVITE final went
// upstream, only what replaying that final takes — its wire image, the
// keys, Origin — and no message at all; after a non-2xx INVITE final, the
// legs and the final as messages, until Timer D, because Timer G replays
// the final and the ACK and a deferred CANCEL are derived from the legs;
// once Terminated, nothing. Every stored message carries a reference of the
// table's own, given back the moment the state stops needing the message,
// so a parsed request returns to sipmsg's pool at its final instead of
// waiting out Timer B in a cancelled timer's closure.
type Transaction struct {
	mu sync.Mutex

	upKey   string // key of the incoming request (upstream side)
	downKey string // key of the forwarded request (downstream side)

	req *sipmsg.Message // original incoming request
	fwd *sipmsg.Message // forwarded request (with the proxy's Via)

	// lastResp is the last response sent upstream while it is kept as a
	// message: a provisional, or a non-2xx INVITE final Timer G replays.
	lastResp *sipmsg.Message
	// final is the exact wire image of a 2xx or non-INVITE final that went
	// upstream, kept instead of lastResp for the linger window: a lingering
	// transaction is the commonest state in a loaded proxy, and a string
	// costs one pointer-free allocation where a message graph costs several
	// the collector must trace. Its status code is read from the image.
	final string

	// Origin identifies where the request came from, so responses return
	// by the same path: a netip.AddrPort for UDP, a connection for TCP.
	// Opaque to this package.
	Origin any

	// downRoute is where the forwarded request went (a location.Binding),
	// kept so the transaction layer's own messages — the ACK for a non-2xx
	// final, a deferred CANCEL — can follow the same path. Opaque here.
	downRoute any

	// trace is the request's tracing context (nil when the call is not
	// traced), taken over at Create: the timeline runs until the last
	// response is replayed, longer than the pooled request lives. Opaque
	// here, immutable after Create.
	trace any

	srvMachine Machine
	cliMachine Machine
	srv        FSMState // server (upstream) machine state
	cli        FSMState // client (downstream) machine state; FInit until forwarded

	state State // collapsed view: Proceeding/Completed/Terminated

	// CANCEL/forward race protocol: RequestCancel and MarkForwardSent
	// exchange these flags under mu so a CANCEL that arrives while the
	// INVITE is still being forwarded is sent downstream by whichever side
	// runs second — never dropped, never sent before the INVITE.
	cancelRequested bool
	forwardSent     bool

	retransTimer *timerlist.Timer // Timer A/E (client), then G (server)
	timeoutTimer *timerlist.Timer // Timer B/F (client), then H (server)
	removeTimer  *timerlist.Timer // Timer D/I/J/K collapsed: table removal

	attempts      int32 // client request retransmissions (Timer A/E)
	finalAttempts int32 // server final retransmissions (Timer G)
}

// statusOf reads the status code off the start line of a response's wire
// image ("SIP/2.0 200 OK"), 0 if there is none.
func statusOf(image string) int {
	const at = len(sipmsg.SIPVersion) + 1
	if len(image) < at+3 {
		return 0
	}
	code, _ := strconv.Atoi(image[at : at+3])
	return code
}

// lastLocked is the response a retransmitted request is answered with: the
// stored message with a reference for the caller to Release, or the final
// parsed back from its wire image into a built message that carries the
// transaction's timeline; nil if there is neither. Caller holds t.mu.
func (t *Transaction) lastLocked() *sipmsg.Message {
	if t.lastResp != nil || t.final == "" {
		return t.lastResp.Retain()
	}
	m, err := sipmsg.ParseBuilt(t.final)
	if err != nil {
		return nil // not reachable: the image is our own rendering
	}
	m.BorrowTrace(t.trace)
	return m
}

// store puts m into a message slot of the transaction: the table takes a
// reference of its own on m and gives back the one it held on the slot's
// previous occupant. Both are no-ops for built (non-pooled) messages.
func store(slot **sipmsg.Message, m *sipmsg.Message) {
	old := *slot
	*slot = m.Retain()
	old.Release()
}

// releaseLegsLocked gives back what only an unanswered transaction (or one
// awaiting the ACK of its non-2xx INVITE final) needs: both request legs
// and the downstream route. Caller holds t.mu.
func (t *Transaction) releaseLegsLocked() {
	store(&t.req, nil)
	store(&t.fwd, nil)
	t.downRoute = nil
}

// State returns the transaction's collapsed state.
func (t *Transaction) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// ServerState returns the upstream server machine's state.
func (t *Transaction) ServerState() FSMState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.srv
}

// ClientState returns the downstream client machine's state (FInit before
// the request has been forwarded).
func (t *Transaction) ClientState() FSMState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cli
}

// Request, Forwarded and LastResponse hand a stored message to code that
// runs outside t.mu, while another worker or the timer goroutine may be
// completing the transaction. Each returns the message with a reference the
// caller must Release, or nil once the transaction has given it back.

// Request returns the original incoming request, held until the final
// response (until Timer D after a non-2xx INVITE final).
func (t *Transaction) Request() *sipmsg.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.req.Retain()
}

// Forwarded returns the forwarded request: nil before SetForwarded, and
// again once the transaction no longer holds its legs.
func (t *Transaction) Forwarded() *sipmsg.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fwd.Retain()
}

// LastResponse returns the most recent response sent upstream, or nil. A
// final kept as its wire image comes back as a built message parsed from it.
func (t *Transaction) LastResponse() *sipmsg.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLocked()
}

// IsInvite reports whether the transaction was created by an INVITE.
func (t *Transaction) IsInvite() bool { return t.srvMachine == MachineInviteServer }

// TraceContext returns the tracing context the request carried when the
// transaction was created, or nil.
func (t *Transaction) TraceContext() any { return t.trace }

// DownRoute returns the opaque downstream route stored by SetForwarded,
// held as long as the forwarded request is.
func (t *Transaction) DownRoute() any {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.downRoute
}

// RecordUpstreamResponse remembers a provisional replayed to retransmitted
// requests (e.g. the proxy's own 100 Trying). Once the transaction has its
// final — a CANCEL's 487 can overtake the worker's 100 — the final stays.
func (t *Transaction) RecordUpstreamResponse(resp *sipmsg.Message) {
	t.mu.Lock()
	if t.state == StateProceeding {
		store(&t.lastResp, resp)
	}
	t.mu.Unlock()
}

// Attempts returns how many client request retransmissions have been sent.
func (t *Transaction) Attempts() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.attempts)
}

// FinalAttempts returns how many Timer G final-response retransmissions
// have been sent.
func (t *Transaction) FinalAttempts() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.finalAttempts)
}

// RequestCancel records the TU's wish to cancel the downstream leg and
// reports how to honour it. alreadyFinal means the transaction has a final
// response and nothing may be cancelled (§9.2: the CANCEL still gets its
// 200, but has no effect). deferred means the INVITE has not left the
// proxy yet — the forwarding worker observes cancelRequested via
// MarkForwardSent and sends the CANCEL itself right after the INVITE, so
// the CANCEL can never overtake (or be dropped before) the request it
// cancels. Otherwise fwd is the forwarded request to derive the downstream
// CANCEL from, with a reference the caller must Release.
func (t *Transaction) RequestCancel() (fwd *sipmsg.Message, deferred, alreadyFinal bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateProceeding {
		return nil, false, true
	}
	t.cancelRequested = true
	if !t.forwardSent {
		return nil, true, false
	}
	return t.fwd.Retain(), false, false
}

// MarkForwardSent records that the forwarded request is on the wire and
// reports whether a CANCEL raced in while it was being sent — in which
// case the caller owns sending the downstream CANCEL now.
func (t *Transaction) MarkForwardSent() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.forwardSent = true
	return t.cancelRequested
}

// Table is the shared transaction store.
type Table struct {
	cfg       Config
	timers    timerlist.Scheduler
	shards    []txShard
	shardMask uint32
	pending   atomic.Int64

	lockWait     *metrics.Timer
	created      *metrics.Counter
	retransmits  *metrics.Counter
	finalRetrans *metrics.Counter
}

type txShard struct {
	mu sync.Mutex
	m  map[string]*Transaction
	// pad keeps neighbouring shards' mutexes off one cache line, so
	// contention on one shard never false-shares into the next.
	_ [40]byte
}

// NewTable creates a transaction table driven by the given timer scheduler
// (the "timer process"); pass a manual list in tests for determinism.
func NewTable(cfg Config, timers timerlist.Scheduler, profile *metrics.Profile) *Table {
	cfg = cfg.withDefaults()
	tbl := &Table{
		cfg:          cfg,
		timers:       timers,
		shards:       make([]txShard, cfg.Shards),
		shardMask:    uint32(cfg.Shards - 1),
		lockWait:     profile.Timer(metrics.MetricTxnLockWait),
		created:      profile.Counter(metrics.MetricTxnCreated),
		retransmits:  profile.Counter(metrics.MetricRetransmits),
		finalRetrans: profile.Counter(metrics.MetricFinalRetransmits),
	}
	for i := range tbl.shards {
		tbl.shards[i].m = make(map[string]*Transaction)
	}
	return tbl
}

// fnvOffset/fnvPrime are the FNV-1a 32-bit parameters; the hash runs over
// the key bytes without allocating regardless of how the key is held.
const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

func (tb *Table) shardFor(key string) *txShard {
	h := fnvOffset
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime
	}
	return &tb.shards[h&tb.shardMask]
}

// lock acquires sh.mu, charging any contended wait to the shard-lock timer.
// The TryLock fast path costs one CAS when uncontended, so the hot path
// pays for instrumentation only when it is actually waiting.
func (tb *Table) lock(sh *txShard) {
	if sh.mu.TryLock() {
		return
	}
	t0 := time.Now()
	sh.mu.Lock()
	tb.lockWait.AddDuration(time.Since(t0))
}

// ShardCount returns the effective number of shards.
func (tb *Table) ShardCount() int { return len(tb.shards) }

// Config returns the effective configuration.
func (tb *Table) Config() Config { return tb.cfg }

// Create registers a new transaction for an incoming request keyed by
// upKey. If a transaction already exists the call reports a retransmission
// and returns the existing one. The server machine is chosen by method
// (INVITE §17.2.1, everything else — including CANCEL, which is its own
// transaction per §17.2.3 — §17.2.2); the matching client machine starts
// only if the request is later forwarded.
func (tb *Table) Create(upKey string, req *sipmsg.Message, origin any) (tx *Transaction, isRetransmit bool) {
	sh := tb.shardFor(upKey)
	tb.lock(sh)
	if existing, ok := sh.m[upKey]; ok {
		sh.mu.Unlock()
		return existing, true
	}
	srvM, cliM := MachineNonInviteServer, MachineNonInviteClient
	if req.Method == sipmsg.INVITE {
		srvM, cliM = MachineInviteServer, MachineInviteClient
	}
	srv, _ := Init(srvM, false)
	// The table takes its own reference on the request, so the receive loop
	// can release its own after Handle returns, and its timeline with it:
	// the message goes back to the pool at the final response, the timeline
	// is still written to when that response is replayed.
	req.DisownTrace()
	tx = &Transaction{
		upKey:      upKey,
		req:        req.Retain(),
		Origin:     origin,
		trace:      req.TraceContext(),
		srvMachine: srvM,
		cliMachine: cliM,
		srv:        srv,
		cli:        FInit,
		state:      StateProceeding,
	}
	sh.m[upKey] = tx
	sh.mu.Unlock()
	tb.created.Inc()
	tb.pending.Add(1)
	return tx, false
}

// OnRetransmit runs a retransmitted request through the server machine and
// returns the response to replay upstream, or nil to absorb silently (a
// non-INVITE transaction still in Trying has nothing to replay; §17.2.2).
// The caller must Release the response it is given.
//
// A 2xx INVITE final is the one departure from the machine: §17.2.1 hands
// 2xx retransmission to the TU and terminates, but this proxy keeps the
// entry matchable during the linger window (see SendFinal), so a
// retransmitted INVITE still replays the recorded 200 here. A final kept as
// its wire image is replayed as a built message parsed from it.
func (tb *Table) OnRetransmit(tx *Transaction) *sipmsg.Message {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	next, act, ok := Step(tx.srvMachine, tx.srv, EvRequest, false)
	if !ok {
		if tx.srvMachine == MachineInviteServer && tx.srv == FTerminated &&
			tx.state == StateCompleted {
			return tx.lastLocked()
		}
		return nil
	}
	tx.srv = next
	if act&ActReplay != 0 {
		return tx.lastLocked()
	}
	return nil
}

// SetForwarded indexes the transaction under the forwarded request's key so
// downstream responses can be matched, stores the forwarded message for
// retransmission, and starts the client machine (Calling for INVITE,
// Trying otherwise). downRoute is the opaque downstream destination,
// replayed by ACK/CANCEL sends. The table takes its own reference on fwd. A
// transaction terminated in the meantime is left alone: nothing would ever
// remove its index entry again.
func (tb *Table) SetForwarded(tx *Transaction, downKey string, fwd *sipmsg.Message, downRoute any) {
	cli, _ := Init(tx.cliMachine, false)
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state == StateTerminated {
		return
	}
	tx.downKey = downKey
	store(&tx.fwd, fwd)
	tx.downRoute = downRoute
	tx.cli = cli
	// Indexed under tx.mu, so Terminate either sees downKey and removes the
	// entry or has already run. No path takes a shard lock before tx.mu.
	sh := tb.shardFor(downKey)
	tb.lock(sh)
	sh.m[downKey] = tx
	sh.mu.Unlock()
}

// Match returns the transaction indexed under key, or nil: a request's
// upstream key, or the key of a response to its forwarded branch.
func (tb *Table) Match(key string) *Transaction {
	sh := tb.shardFor(key)
	tb.lock(sh)
	defer sh.mu.Unlock()
	return sh.m[key]
}

// MatchParts looks up the transaction keyed by branch and method without
// materializing the "branch|method" key string. The key is assembled in a
// stack buffer and both the FNV shard hash and the map probe run over it
// in place (the compiler elides the string conversion inside a map index),
// so the response hot path — one MatchParts per response — allocates
// nothing. Falls back to the heap for pathological branch lengths.
func (tb *Table) MatchParts(branch string, method sipmsg.Method) *Transaction {
	m := sipmsg.TransactionMethod(method)
	var stack [96]byte
	buf := stack[:0]
	if len(branch)+1+len(m) > len(stack) {
		buf = make([]byte, 0, len(branch)+1+len(m))
	}
	buf = append(buf, branch...)
	buf = append(buf, '|')
	buf = append(buf, m...)

	h := fnvOffset
	for i := 0; i < len(buf); i++ {
		h ^= uint32(buf[i])
		h *= fnvPrime
	}
	sh := &tb.shards[h&tb.shardMask]
	tb.lock(sh)
	defer sh.mu.Unlock()
	return sh.m[string(buf)]
}

// ClientTimerHandler is the TU's side of a transaction's client timers. The
// table calls it from the timer goroutine, holding none of its locks. One
// handler serves every transaction (the proxy engine implements it), so
// arming the timers allocates the timers and nothing else.
type ClientTimerHandler interface {
	// RetransmitRequest is Timer A/E: the forwarded request is still
	// unanswered and goes downstream again.
	RetransmitRequest(tx *Transaction, fwd *sipmsg.Message)
	// RequestTimedOut is Timer B/F: the client leg gave up, and the TU
	// answers upstream (408).
	RequestTimedOut(tx *Transaction)
}

// ArmClientTimers starts the client machine's timers for an unreliable
// transport: the Timer A/E retransmission cycle (T1 doubling; E capped at
// T2) and the Timer B/F transaction timeout, both delivered to h. Reliable
// transports never call this — "the timer process is superfluous for TCP".
func (tb *Table) ArmClientTimers(tx *Transaction, h ClientTimerHandler) {
	tx.mu.Lock()
	if tx.cli == FInit || tx.cli == FTerminated || tx.state != StateProceeding {
		tx.mu.Unlock()
		return
	}
	tx.timeoutTimer = tb.timers.After(tb.cfg.TimerB, func() {
		timeoutEv := EvTimerB
		if tx.cliMachine == MachineNonInviteClient {
			timeoutEv = EvTimerF
		}
		tx.mu.Lock()
		if tx.state != StateProceeding {
			tx.mu.Unlock()
			return
		}
		next, act, ok := Step(tx.cliMachine, tx.cli, timeoutEv, false)
		if !ok {
			tx.mu.Unlock()
			return
		}
		tx.cli = next
		tx.mu.Unlock()
		if act&ActTimeoutTU != 0 {
			h.RequestTimedOut(tx)
		}
	})
	tb.armClientRetransLocked(tx, tb.cfg.T1, h)
	tx.mu.Unlock()
}

// armClientRetransLocked arms one Timer A/E firing. Caller holds tx.mu.
func (tb *Table) armClientRetransLocked(tx *Transaction, next time.Duration, h ClientTimerHandler) {
	tx.retransTimer = tb.timers.After(next, func() {
		ev := EvTimerA
		if tx.cliMachine == MachineNonInviteClient {
			ev = EvTimerE
		}
		tx.mu.Lock()
		if tx.state != StateProceeding {
			tx.mu.Unlock()
			return
		}
		nextState, act, ok := Step(tx.cliMachine, tx.cli, ev, false)
		if !ok {
			tx.mu.Unlock()
			return
		}
		tx.cli = nextState
		if act&ActRetransmitReq == 0 {
			// INVITE client in Proceeding: a provisional arrived, Timer A
			// stops firing and is not re-armed (§17.1.1.2).
			tx.mu.Unlock()
			return
		}
		fwd := tx.fwd.Retain()
		tx.attempts++
		if act&ActArmRetrans != 0 {
			interval := next * 2
			if ev == EvTimerE && interval > tb.cfg.T2 {
				interval = tb.cfg.T2
			}
			tb.armClientRetransLocked(tx, interval, h)
		}
		tx.mu.Unlock()
		if fwd != nil {
			tb.retransmits.Inc()
			h.RetransmitRequest(tx, fwd)
			fwd.Release()
		}
	})
}

// OnClientResponse runs a downstream response through the client machine
// and classifies it for the TU. resp must be the upstream-facing message
// (proxy Via already stripped): provisionals are recorded as lastResp here
// so retransmitted requests replay the freshest status. Finals are NOT
// recorded here — SendFinal owns that transition on the server machine —
// and neither is a 2xx relayed past it (RespRelay2xx).
func (tb *Table) OnClientResponse(tx *Transaction, resp *sipmsg.Message) RespDisposition {
	code := resp.StatusCode
	ev := Ev300Plus
	switch {
	case code < 200:
		ev = Ev1xx
	case code < 300:
		ev = Ev2xx
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	next, act, ok := Step(tx.cliMachine, tx.cli, ev, false)
	if !ok {
		// A 2xx terminated the INVITE client leg and went upstream, so its
		// transaction is gone at both ends: a retransmitted (or forked) 2xx
		// is the UAS core's own retransmission and every proxy forwards it
		// (§17.1.1.2, §16.7 step 1). Nothing here changes.
		if ev == Ev2xx && tx.cliMachine == MachineInviteClient &&
			tx.cli == FTerminated && statusOf(tx.final)/100 == 2 {
			return RespRelay2xx
		}
		return RespAbsorb
	}
	tx.cli = next
	if ev == Ev1xx {
		if tx.state != StateProceeding {
			// Upstream already has a final (CANCEL/487, Timer B's 408):
			// a straggling provisional must neither be relayed nor clobber
			// lastResp, which Timer G is replaying.
			return RespAbsorb
		}
		// Advance the server machine too: a non-INVITE transaction moves
		// Trying → Proceeding, where retransmitted requests replay lastResp.
		if snext, _, sok := Step(tx.srvMachine, tx.srv, Ev1xx, false); sok {
			tx.srv = snext
		}
		store(&tx.lastResp, resp)
		if code == 100 {
			return RespAbsorb100
		}
		return RespPassProvisional
	}
	if act&ActPassUp == 0 {
		// Completed already answered upstream; a retransmitted non-2xx
		// INVITE final still needs its ACK re-sent (§17.1.1.3).
		if act&ActGenACK != 0 {
			return RespDupFinalAck
		}
		return RespAbsorb
	}
	// First final: the client leg is done retransmitting and waiting. Only
	// touch the timer slots while the server side is still Proceeding —
	// once SendFinal has run (the CANCEL/487 path answers upstream before
	// the downstream final arrives) they hold Timer G/H, which this
	// response must not stop.
	if tx.state == StateProceeding {
		if tx.retransTimer != nil {
			tx.retransTimer.Cancel()
			tx.retransTimer = nil
		}
		if tx.timeoutTimer != nil {
			tx.timeoutTimer.Cancel()
			tx.timeoutTimer = nil
		}
	}
	if act&ActGenACK != 0 {
		return RespPassFinalAck
	}
	return RespPassFinal
}

// OnAck runs an upstream ACK through the INVITE server machine. An ACK for
// our non-2xx final is absorbed here — the machine moves Completed →
// Confirmed and the Timer G/H retransmission cycle stops (§17.2.1). An ACK
// for a 2xx (or one matching no completed non-2xx INVITE transaction)
// belongs to the dialog layer and is forwarded.
func (tb *Table) OnAck(tx *Transaction) AckDisposition {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.srvMachine != MachineInviteServer {
		return AckForward
	}
	if tx.lastResp == nil || tx.lastResp.StatusCode < 300 {
		return AckForward
	}
	if next, _, ok := Step(tx.srvMachine, tx.srv, EvAck, false); ok {
		tx.srv = next
	}
	// Confirmed: stop retransmitting the final and stop waiting for the
	// ACK. The removal timer (Timer D, doubling as Timer I's absorb
	// window) keeps the entry matchable for straggling ACKs.
	if tx.retransTimer != nil {
		tx.retransTimer.Cancel()
		tx.retransTimer = nil
	}
	if tx.timeoutTimer != nil {
		tx.timeoutTimer.Cancel()
		tx.timeoutTimer = nil
	}
	return AckAbsorbed
}

// SendFinal transitions the transaction to Completed: the final response
// is about to go upstream. Client timers stop, the pending gauge drops,
// and the entry is scheduled for removal (Timer D for a non-2xx INVITE
// final, Linger otherwise). Only a non-2xx INVITE final keeps messages past
// this point — Timer G replays it, and the ACK it provokes downstream and a
// CANCEL still owed to the next hop are derived from the request legs. Any
// other final needs nothing but its own bytes to be replayed: the table
// keeps resp's wire image and neither resp nor the legs.
//
// For a non-2xx INVITE final over an unreliable transport, pass a non-nil
// replay to arm the §17.2.1 ACK wait: the final is retransmitted via replay
// on Timer G (T1 doubling, capped T2) until the ACK confirms the
// transaction or Timer H fires; pass nil over reliable transports (or for
// non-INVITE/2xx finals, where it is ignored). Returns false if a final was
// already sent (duplicate finals are dropped).
//
// Departure from a literal §17.2.1: a 2xx moves the real machine straight
// to Terminated (the 2xx ACK is end-to-end), but the entry stays in the
// table for the linger window so retransmitted INVITEs replay the 200
// instead of spawning a second transaction — the absorption the paper's
// stateful-proxy cells depend on over lossy UDP.
func (tb *Table) SendFinal(tx *Transaction, resp *sipmsg.Message, replay func(*sipmsg.Message)) bool {
	code := resp.StatusCode
	ev := Ev300Plus
	if code < 300 {
		ev = Ev2xx
	}
	keepMessages := tx.srvMachine == MachineInviteServer && code >= 300
	var image string
	if !keepMessages {
		// Rendered before the lock: the one allocation of the image, sized
		// exactly, and no serialization under tx.mu.
		w := resp.RenderWire()
		image = string(w.Bytes)
		w.Release()
	}
	tx.mu.Lock()
	if tx.state != StateProceeding {
		tx.mu.Unlock()
		return false
	}
	next, act, ok := Step(tx.srvMachine, tx.srv, ev, false)
	if !ok {
		tx.mu.Unlock()
		return false
	}
	tx.srv = next
	tx.state = StateCompleted
	if tx.retransTimer != nil {
		tx.retransTimer.Cancel()
		tx.retransTimer = nil
	}
	if tx.timeoutTimer != nil {
		tx.timeoutTimer.Cancel()
		tx.timeoutTimer = nil
	}
	linger := tb.cfg.Linger
	if keepMessages {
		store(&tx.lastResp, resp)
		linger = tb.cfg.TimerD
	} else {
		tx.final = image
		store(&tx.lastResp, nil)
		tx.releaseLegsLocked()
	}
	tx.removeTimer = tb.timers.After(linger, func() { tb.Terminate(tx) })
	if replay != nil && act&ActArmRetrans != 0 {
		// §17.2.1 Completed: retransmit the final on Timer G until the ACK
		// arrives; give up and remove the transaction when Timer H fires.
		tx.timeoutTimer = tb.timers.After(tb.cfg.TimerH, func() {
			tx.mu.Lock()
			next, _, ok := Step(tx.srvMachine, tx.srv, EvTimerH, false)
			if !ok {
				tx.mu.Unlock()
				return
			}
			tx.srv = next
			tx.mu.Unlock()
			tb.Terminate(tx)
		})
		tb.armFinalRetransLocked(tx, tb.cfg.T1, replay)
	}
	tx.mu.Unlock()
	tb.pending.Add(-1)
	return true
}

// armFinalRetransLocked arms one Timer G firing. Caller holds tx.mu.
func (tb *Table) armFinalRetransLocked(tx *Transaction, next time.Duration, replay func(*sipmsg.Message)) {
	tx.retransTimer = tb.timers.After(next, func() {
		tx.mu.Lock()
		nextState, act, ok := Step(tx.srvMachine, tx.srv, EvTimerG, false)
		if !ok {
			tx.mu.Unlock()
			return
		}
		tx.srv = nextState
		if act&ActRetransmitFinal == 0 {
			tx.mu.Unlock()
			return
		}
		resp := tx.lastResp.Retain()
		tx.finalAttempts++
		if act&ActArmRetrans != 0 {
			interval := next * 2
			if interval > tb.cfg.T2 {
				interval = tb.cfg.T2
			}
			tb.armFinalRetransLocked(tx, interval, replay)
		}
		tx.mu.Unlock()
		if resp != nil {
			tb.finalRetrans.Inc()
			replay(resp)
			resp.Release()
		}
	})
}

// Terminate removes the transaction from the table immediately and gives
// back every message it still held.
func (tb *Table) Terminate(tx *Transaction) {
	tx.mu.Lock()
	if tx.state == StateTerminated {
		tx.mu.Unlock()
		return
	}
	wasProceeding := tx.state == StateProceeding
	tx.state = StateTerminated
	tx.srv = FTerminated
	tx.cli = FTerminated
	if tx.retransTimer != nil {
		tx.retransTimer.Cancel()
		tx.retransTimer = nil
	}
	if tx.timeoutTimer != nil {
		tx.timeoutTimer.Cancel()
		tx.timeoutTimer = nil
	}
	if tx.removeTimer != nil {
		tx.removeTimer.Cancel()
		tx.removeTimer = nil
	}
	tx.releaseLegsLocked()
	store(&tx.lastResp, nil)
	tx.final = ""
	up, down := tx.upKey, tx.downKey
	tx.mu.Unlock()
	if wasProceeding {
		tb.pending.Add(-1)
	}

	tb.remove(up, tx)
	if down != "" {
		tb.remove(down, tx)
	}
}

// TerminateAll terminates every transaction left in the table, giving back
// the messages they hold. A server calls it at shutdown, once no receive
// path can create or advance a transaction any more.
func (tb *Table) TerminateAll() {
	var live []*Transaction
	for i := range tb.shards {
		sh := &tb.shards[i]
		sh.mu.Lock()
		for _, tx := range sh.m {
			live = append(live, tx)
		}
		sh.mu.Unlock()
	}
	for _, tx := range live {
		tb.Terminate(tx)
	}
}

func (tb *Table) remove(key string, tx *Transaction) {
	sh := tb.shardFor(key)
	tb.lock(sh)
	if sh.m[key] == tx {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
}

// Pending returns the number of transactions still awaiting a final
// response (Proceeding state). Unlike Len it counts each transaction once
// and excludes completed-but-lingering entries, making it the load probe
// the overload controller polls.
func (tb *Table) Pending() int { return int(tb.pending.Load()) }

// Len returns the number of index entries (a transaction with a forwarded
// leg counts twice).
func (tb *Table) Len() int {
	n := 0
	for i := range tb.shards {
		tb.shards[i].mu.Lock()
		n += len(tb.shards[i].m)
		tb.shards[i].mu.Unlock()
	}
	return n
}
