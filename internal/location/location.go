// Package location implements the SIP location service and registrar
// (RFC 3261 §10): the mapping from an address-of-record ("bob@example.com")
// to the contact address(es) where the user can actually be reached. SIP
// proxies consult this service to route INVITEs; phones populate it with
// REGISTER transactions.
//
// The store is built for millions of resident bindings: AORs hash to
// cache-line-padded shards (configurable power-of-two count) holding
// intrusive, pooled binding nodes, and expiry is driven by a per-shard
// single-level timing wheel, so de-registration by lapse is O(1) amortized
// — no stop-the-world scan ever runs on the serving path. The steady-state
// Register (refresh) and Lookup paths allocate nothing: keys derived from
// URIs are assembled in stack buffers and probed with the compiler-elided
// map[string(buf)] form, the same trick as transaction.MatchParts.
package location

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/trace"
)

// Binding is one registered contact for an AOR.
type Binding struct {
	Contact sipmsg.URI
	// Transport the phone registered over; forwarding reuses it.
	Transport string
	// Source is the network address the REGISTER arrived from; forwarding
	// targets it directly (the "received" address), which is what matters
	// for phones behind per-experiment ephemeral ports.
	Source  string
	Expires time.Time
}

// Expired reports whether the binding has lapsed at now.
func (b Binding) Expired(now time.Time) bool { return !b.Expires.After(now) }

// binding is the resident representation: one intrusive node that lives
// simultaneously on its AOR's expiry-sorted list and on one expiry-wheel
// slot. Nodes are pooled per shard, so steady-state churn (register,
// expire, re-register) recycles memory instead of allocating.
type binding struct {
	aor       string // the shard map key; retained for wheel-driven removal
	contact   sipmsg.URI
	transport string
	source    string
	expiresNs int64 // unix nanoseconds

	// next links the per-AOR list, sorted by expiry descending (freshest
	// first), so Lookup copies a prefix and never sorts. The free list
	// reuses this field.
	next *binding

	// Wheel linkage: doubly linked so refresh and de-registration unlink
	// in O(1).
	wprev, wnext *binding
	slot         int16
	linked       bool
}

// ErrNoBinding is returned when an AOR has no live binding.
var ErrNoBinding = errors.New("location: no binding")

// DefaultExpiry applies when a REGISTER carries no Expires header.
const DefaultExpiry = 3600 * time.Second

// Wheel geometry: one level of 256 slots at a 1-second tick, a 256s
// horizon. Registrar expiry needs only second granularity (Expires is an
// integer-seconds header), and a binding beyond the horizon simply relinks
// each revolution — a 1-hour binding is touched ~14 times over its life,
// each touch O(1). A binding lapses at most one tick after its deadline,
// never before.
const (
	wheelBits  = 8
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
)

const tickNs = int64(time.Second)

// maxFreePerShard bounds the per-shard node pool so a register avalanche
// followed by mass expiry doesn't pin its high-water memory forever.
const maxFreePerShard = 4096

const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// Options configures the service.
type Options struct {
	// Shards is the shard count, rounded up to a power of two
	// (0 = DefaultShards, the historical fixed count).
	Shards int
	// Profile receives lock-wait time (lock.location), binding lifecycle
	// counters, and population gauges. Nil disables instrumentation.
	Profile *metrics.Profile
	// SweepInterval runs a background goroutine advancing the expiry
	// wheels this often (0 = no goroutine; expiry then happens on Purge).
	SweepInterval time.Duration
}

// DefaultShards is the shard count a zero Options.Shards resolves to.
const DefaultShards = 16

// Service is the shared location database. It is accessed concurrently by
// every worker, so state is sharded by AOR hash with contended lock waits
// charged to lock.location.
type Service struct {
	shards    []shard
	shardMask uint32

	lockWait     *metrics.Timer
	registered   *metrics.Counter
	refreshed    *metrics.Counter
	expired      *metrics.Counter
	deregistered *metrics.Counter
	bindings     atomic.Int64

	stop      chan struct{}
	closeOnce sync.Once
	sweeper   sync.WaitGroup
}

type shard struct {
	mu   sync.Mutex
	aors map[string]*binding // key: AOR; value: expiry-desc sorted list head

	// free is the recycled-node pool (chained via .next).
	free    *binding
	freeLen int

	// wheel holds one doubly linked list per slot; cur is the last tick
	// whose slot has been drained. Guarded by mu.
	wheel [wheelSlots]*binding
	cur   int64

	// pad keeps neighbouring shards' mutexes off one cache line.
	_ [40]byte
}

// New creates an empty location service with default options.
func New() *Service { return NewService(Options{}) }

// NewService creates an empty location service.
func NewService(opts Options) *Service {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	n = ceilPow2(n)
	s := &Service{
		shards:    make([]shard, n),
		shardMask: uint32(n - 1),
		stop:      make(chan struct{}),
	}
	cur := time.Now().UnixNano() / tickNs
	for i := range s.shards {
		s.shards[i].aors = make(map[string]*binding)
		s.shards[i].cur = cur
	}
	if p := opts.Profile; p != nil {
		s.lockWait = p.Timer(metrics.MetricLocLockWait)
		s.registered = p.Counter(metrics.MetricLocRegistered)
		s.refreshed = p.Counter(metrics.MetricLocRefreshed)
		s.expired = p.Counter(metrics.MetricLocExpired)
		s.deregistered = p.Counter(metrics.MetricLocDeregistered)
		p.SetGauge(metrics.GaugeLocBindings, func() float64 { return float64(s.Bindings()) })
		p.SetGauge(metrics.GaugeLocAORs, func() float64 { return float64(s.Len()) })
	}
	if opts.SweepInterval > 0 {
		s.sweeper.Add(1)
		go s.run(opts.SweepInterval)
	}
	return s
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ShardCount reports how many shards AORs spread across.
func (s *Service) ShardCount() int { return len(s.shards) }

func (s *Service) run(interval time.Duration) {
	defer s.sweeper.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.Purge(time.Now())
		case <-s.stop:
			return
		}
	}
}

// Close stops the background sweeper, if any. Idempotent.
func (s *Service) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	s.sweeper.Wait()
}

// lock acquires sh.mu, charging only contended waits to lock.location —
// the TryLock fast path keeps the uncontended case at one atomic.
func (s *Service) lock(sh *shard) {
	if sh.mu.TryLock() {
		return
	}
	t0 := time.Now()
	sh.mu.Lock()
	if s.lockWait != nil {
		s.lockWait.AddDuration(time.Since(t0))
	}
}

func (s *Service) shardFor(key []byte) *shard {
	var h uint32 = fnvOffset
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime
	}
	return &s.shards[h&s.shardMask]
}

func (s *Service) shardForString(aor string) *shard {
	var h uint32 = fnvOffset
	for i := 0; i < len(aor); i++ {
		h ^= uint32(aor[i])
		h *= fnvPrime
	}
	return &s.shards[h&s.shardMask]
}

// appendAORKey assembles the canonical AOR key ("user@lowercase-host", or
// just the host when the URI has no user part) into buf. It matches
// URI.AOR() byte-for-byte for ASCII hosts — the only kind this system
// generates — without materializing a string.
func appendAORKey(buf []byte, u sipmsg.URI) []byte {
	if u.User != "" {
		buf = append(buf, u.User...)
		buf = append(buf, '@')
	}
	for i := 0; i < len(u.Host); i++ {
		c := u.Host[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

// sameContact compares a resident node's contact against a URI
// structurally (user, case-insensitive host, port) — no String()
// materialization under the shard lock.
func sameContact(n *binding, u sipmsg.URI) bool {
	return n.contact.User == u.User &&
		n.contact.Port == u.Port &&
		strings.EqualFold(n.contact.Host, u.Host)
}

// --- wheel plumbing (callers hold sh.mu) ---

// linkTick is the wheel tick a binding files under: expiry rounded up to
// the next tick boundary, so a binding is never reclaimed early.
func linkTick(expiresNs int64) int64 { return (expiresNs + tickNs - 1) / tickNs }

func (sh *shard) wheelLink(n *binding) {
	slot := int16(linkTick(n.expiresNs) & wheelMask)
	n.slot = slot
	head := sh.wheel[slot]
	n.wprev = nil
	n.wnext = head
	if head != nil {
		head.wprev = n
	}
	sh.wheel[slot] = n
	n.linked = true
}

func (sh *shard) wheelUnlink(n *binding) {
	if !n.linked {
		return
	}
	if n.wprev != nil {
		n.wprev.wnext = n.wnext
	} else {
		sh.wheel[n.slot] = n.wnext
	}
	if n.wnext != nil {
		n.wnext.wprev = n.wprev
	}
	n.wprev, n.wnext = nil, nil
	n.linked = false
}

// advance drains every slot between the shard's clock and now, removing
// lapsed bindings and relinking still-live ones for a later revolution.
// Visits at most one full revolution regardless of how far the clock
// jumped, so a long-idle shard catches up in O(slots + resident). Returns
// the number of bindings reclaimed. Callers hold sh.mu.
func (sh *shard) advance(s *Service, nowNs int64) int {
	target := nowNs / tickNs
	steps := target - sh.cur
	if steps <= 0 {
		return 0
	}
	if steps > wheelSlots {
		steps = wheelSlots
	}
	removed := 0
	for i := int64(1); i <= steps; i++ {
		slot := (sh.cur + i) & wheelMask
		// Detach the whole list first: live bindings may relink into this
		// very slot for a future revolution.
		n := sh.wheel[slot]
		sh.wheel[slot] = nil
		for n != nil {
			next := n.wnext
			n.wprev, n.wnext, n.linked = nil, nil, false
			if n.expiresNs <= nowNs {
				sh.removeFromAOR(n)
				sh.recycle(n)
				removed++
			} else {
				sh.wheelLink(n)
			}
			n = next
		}
	}
	sh.cur = target
	if removed > 0 {
		s.expired.Add(int64(removed))
		s.bindings.Add(int64(-removed))
	}
	return removed
}

// removeFromAOR unlinks n from its AOR's list, deleting the map entry when
// the list empties. Callers hold sh.mu.
func (sh *shard) removeFromAOR(n *binding) {
	head := sh.aors[n.aor]
	if head == n {
		if n.next == nil {
			delete(sh.aors, n.aor)
		} else {
			sh.aors[n.aor] = n.next
		}
		n.next = nil
		return
	}
	for p := head; p != nil; p = p.next {
		if p.next == n {
			p.next = n.next
			n.next = nil
			return
		}
	}
}

// recycle clears a node and returns it to the shard pool (bounded so an
// avalanche's high-water mark is not pinned forever).
func (sh *shard) recycle(n *binding) {
	*n = binding{}
	if sh.freeLen >= maxFreePerShard {
		return
	}
	n.next = sh.free
	sh.free = n
	sh.freeLen++
}

func (sh *shard) newNode() *binding {
	if n := sh.free; n != nil {
		sh.free = n.next
		sh.freeLen--
		n.next = nil
		return n
	}
	return &binding{}
}

// insertSorted files n into its AOR's list keeping expiry-descending
// order. Callers hold sh.mu; n.aor must be the map key already in use.
func (sh *shard) insertSorted(n *binding) {
	head := sh.aors[n.aor]
	if head == nil || head.expiresNs <= n.expiresNs {
		n.next = head
		sh.aors[n.aor] = n
		return
	}
	p := head
	for p.next != nil && p.next.expiresNs > n.expiresNs {
		p = p.next
	}
	n.next = p.next
	p.next = n
}

// registerLocked applies one REGISTER action to a shard whose lock is
// held: refresh or remove the same-contact binding, or insert a new node.
// mkKey materializes the AOR string only when a first-time insertion
// actually needs a map key.
func (s *Service) registerLocked(sh *shard, head *binding, mkKey func() string, b Binding, ttl time.Duration, now time.Time) {
	for n := head; n != nil; n = n.next {
		if !sameContact(n, b.Contact) {
			continue
		}
		if ttl <= 0 {
			// Expires: 0 de-registration, O(1) on the wheel.
			sh.wheelUnlink(n)
			sh.removeFromAOR(n)
			sh.recycle(n)
			s.deregistered.Inc()
			s.bindings.Add(-1)
			return
		}
		// Refresh in place: reposition in the sorted list and refile on
		// the wheel. No allocation.
		sh.removeFromAOR(n)
		n.transport = b.Transport
		n.source = b.Source
		n.expiresNs = now.Add(ttl).UnixNano()
		sh.insertSorted(n)
		sh.wheelUnlink(n)
		sh.wheelLink(n)
		s.refreshed.Inc()
		return
	}
	if ttl <= 0 {
		return // removing a binding that isn't there
	}
	n := sh.newNode()
	n.aor = mkKey()
	n.contact = b.Contact
	n.transport = b.Transport
	n.source = b.Source
	n.expiresNs = now.Add(ttl).UnixNano()
	sh.insertSorted(n)
	sh.wheelLink(n)
	s.registered.Inc()
	s.bindings.Add(1)
}

// Register adds or refreshes a binding for the AOR. A zero ttl removes the
// binding (RFC 3261 "Expires: 0" de-registration). The refresh path
// allocates nothing.
func (s *Service) Register(aor string, b Binding, ttl time.Duration, now time.Time) {
	sh := s.shardForString(aor)
	s.lock(sh)
	head := sh.aors[aor]
	s.registerLocked(sh, head, func() string { return aor }, b, ttl, now)
	sh.mu.Unlock()
}

// RegisterContact is Register keyed by the To URI directly: the AOR key is
// assembled in a stack buffer, so a refresh — the registrar's steady state
// — allocates nothing. Only a first-time insertion materializes the key
// string.
func (s *Service) RegisterContact(to sipmsg.URI, b Binding, ttl time.Duration, now time.Time) {
	var stack [96]byte
	key := appendAORKey(stack[:0], to)
	sh := s.shardFor(key)
	s.lock(sh)
	head := sh.aors[string(key)] // compiler-elided conversion
	s.registerLocked(sh, head, func() string { return string(key) }, b, ttl, now)
	sh.mu.Unlock()
}

// appendLive copies the AOR list's live prefix into buf as exported
// Bindings. The list is expiry-descending, so the first lapsed node ends
// the copy. Callers hold the shard lock.
func appendLive(buf []Binding, head *binding, nowNs int64) []Binding {
	for n := head; n != nil && n.expiresNs > nowNs; n = n.next {
		buf = append(buf, Binding{
			Contact:   n.contact,
			Transport: n.transport,
			Source:    n.source,
			Expires:   time.Unix(0, n.expiresNs),
		})
	}
	return buf
}

// Lookup returns the live bindings for an AOR, freshest first, appended to
// buf. Pass a buffer with spare capacity (e.g. a stack-backed slice) and
// the call allocates nothing; the list is maintained in expiry order, so
// no sort runs.
func (s *Service) Lookup(aor string, now time.Time, buf []Binding) ([]Binding, error) {
	sh := s.shardForString(aor)
	nowNs := now.UnixNano()
	s.lock(sh)
	out := appendLive(buf, sh.aors[aor], nowNs)
	sh.mu.Unlock()
	if len(out) == len(buf) {
		return buf, ErrNoBinding
	}
	return out, nil
}

// LookupOne returns the freshest live binding for the URI's AOR. The key
// is assembled in a stack buffer and probed in place, so the proxy's
// route-time lookup allocates nothing.
func (s *Service) LookupOne(u sipmsg.URI, now time.Time) (Binding, bool) {
	var stack [96]byte
	key := appendAORKey(stack[:0], u)
	sh := s.shardFor(key)
	nowNs := now.UnixNano()
	s.lock(sh)
	n := sh.aors[string(key)] // compiler-elided conversion
	if n == nil || n.expiresNs <= nowNs {
		sh.mu.Unlock()
		return Binding{}, false
	}
	b := Binding{
		Contact:   n.contact,
		Transport: n.transport,
		Source:    n.source,
		Expires:   time.Unix(0, n.expiresNs),
	}
	sh.mu.Unlock()
	return b, true
}

// Len counts AORs with at least one (possibly lapsed but not yet swept)
// binding.
func (s *Service) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		s.lock(sh)
		n += len(sh.aors)
		sh.mu.Unlock()
	}
	return n
}

// Bindings returns the resident binding population.
func (s *Service) Bindings() int { return int(s.bindings.Load()) }

// Purge advances every shard's expiry wheel to now and returns how many
// bindings were reclaimed. This is the sweeper's entry point — amortized
// O(1) per binding over its lifetime — not a table scan; serving paths
// never call it.
func (s *Service) Purge(now time.Time) int {
	nowNs := now.UnixNano()
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		s.lock(sh)
		removed += sh.advance(s, nowNs)
		sh.mu.Unlock()
	}
	return removed
}

// HandleRegister applies a REGISTER request to the service and returns the
// response to send. source is the network address the request arrived
// from; transport is "UDP" or "TCP".
func (s *Service) HandleRegister(req *sipmsg.Message, source, transport string, now time.Time) *sipmsg.Message {
	// Registrar work is the REGISTER request's location stage.
	t0 := time.Now()
	defer trace.Of(req).Span(trace.StageLocation, t0)
	toVal, ok := req.Get("To")
	if !ok {
		return sipmsg.NewResponse(req, sipmsg.StatusBadRequest, "")
	}
	to, err := sipmsg.ParseNameAddr(toVal)
	if err != nil {
		return sipmsg.NewResponse(req, sipmsg.StatusBadRequest, "")
	}

	contactVal, ok := req.Get("Contact")
	if !ok {
		// Query-style REGISTER (RFC 3261 §10.3 step 8): no Contact means
		// "tell me my current bindings" — list each live one with its
		// remaining lifetime.
		resp := sipmsg.NewResponse(req, sipmsg.StatusOK, sipmsg.NewTag())
		var stack [8]Binding
		bs, err := s.Lookup(to.URI.AOR(), now, stack[:0])
		if err == nil {
			for _, b := range bs {
				resp.Add("Contact", contactWithExpires(b, now))
			}
		}
		return resp
	}
	contact, err := sipmsg.ParseNameAddr(contactVal)
	if err != nil {
		return sipmsg.NewResponse(req, sipmsg.StatusBadRequest, "")
	}

	ttl := DefaultExpiry
	if v, ok := req.Get("Expires"); ok {
		secs, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || secs < 0 {
			return sipmsg.NewResponse(req, sipmsg.StatusBadRequest, "")
		}
		ttl = time.Duration(secs) * time.Second
	}
	s.RegisterContact(to.URI, Binding{
		Contact:   contact.URI,
		Transport: transport,
		Source:    source,
	}, ttl, now)
	// Contact and Expires are rendered into one buffer and share one string.
	var b [128]byte
	buf := contact.AppendTo(b[:0])
	n := len(buf)
	if ttl > 0 {
		buf = strconv.AppendInt(buf, int64(ttl/time.Second), 10)
	}
	vals := string(buf)
	resp := sipmsg.NewResponse(req, sipmsg.StatusOK, sipmsg.NewTag())
	resp.Add("Contact", vals[:n])
	if ttl > 0 {
		resp.Add("Expires", vals[n:])
	}
	return resp
}

// contactWithExpires renders "<uri>;expires=N" with the binding's
// remaining lifetime in whole seconds, as §10.3 requires in REGISTER
// responses.
func contactWithExpires(b Binding, now time.Time) string {
	remain := int(b.Expires.Sub(now) / time.Second)
	if remain < 0 {
		remain = 0
	}
	buf := make([]byte, 0, 64)
	buf = append(buf, '<')
	buf = b.Contact.AppendTo(buf)
	buf = append(buf, ">;expires="...)
	buf = strconv.AppendInt(buf, int64(remain), 10)
	return string(buf)
}
