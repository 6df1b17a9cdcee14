// Package metrics provides the first-party instrumentation that stands in
// for the paper's OProfile measurements: cumulative counters and
// nanosecond-accounted timers that can be reported as a percentage of
// server busy time (e.g. "12% of time in the IPC function" → with the fd
// cache "4.6%").
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosip/internal/sipmsg"
)

// Counter is a monotonically increasing event count. Like Histogram, a nil
// *Counter is a valid no-op receiver: instrumentation points in low-level
// packages (transport) can keep an optional counter field and hit it
// unconditionally on the hot path.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n.Add(1)
}

// Add adds delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Timer accumulates total time spent inside a code region, the analogue of
// per-function time in a flat profile.
type Timer struct {
	total atomic.Int64 // nanoseconds
	count atomic.Int64
}

// Start returns the current time; pass it to Stop when the region exits.
func (t *Timer) Start() time.Time { return time.Now() }

// Stop accumulates the elapsed time since start.
func (t *Timer) Stop(start time.Time) {
	t.total.Add(int64(time.Since(start)))
	t.count.Add(1)
}

// AddDuration accumulates an externally measured duration.
func (t *Timer) AddDuration(d time.Duration) {
	t.total.Add(int64(d))
	t.count.Add(1)
}

// Total returns the accumulated time.
func (t *Timer) Total() time.Duration { return time.Duration(t.total.Load()) }

// Count returns how many intervals were recorded.
func (t *Timer) Count() int64 { return t.count.Load() }

// Mean returns the average interval, or 0 when none were recorded.
func (t *Timer) Mean() time.Duration {
	n := t.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(t.total.Load() / n)
}

// Profile is a named collection of counters and timers for one server run;
// the unit a report is generated from.
type Profile struct {
	mu       sync.Mutex
	counters map[string]*Counter
	timers   map[string]*Timer
	hists    map[string]*Histogram
	gauges   map[string]func() float64
	started  time.Time
}

// NewProfile creates an empty profile whose wall-clock epoch is now.
func NewProfile() *Profile {
	return &Profile{
		counters: make(map[string]*Counter),
		timers:   make(map[string]*Timer),
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]func() float64),
		started:  time.Now(),
	}
}

// StartedAt returns the profile's creation instant — the run's start time,
// exported as gosip_process_start_time_seconds so scrapes spanning a long
// sweep can detect restarts.
func (p *Profile) StartedAt() time.Time { return p.started }

// Counter returns the named counter, creating it on first use.
func (p *Profile) Counter(name string) *Counter {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.counters[name]
	if !ok {
		c = &Counter{}
		p.counters[name] = c
	}
	return c
}

// Timer returns the named timer, creating it on first use.
func (p *Profile) Timer(name string) *Timer {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.timers[name]
	if !ok {
		t = &Timer{}
		p.timers[name] = t
	}
	return t
}

// Histogram returns the named latency histogram, creating it on first use.
// Call sites should look histograms up once at construction time and keep
// the pointer: Record is then lock-free and allocation-free.
func (p *Profile) Histogram(name string) *Histogram {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.hists[name]
	if !ok {
		h = &Histogram{}
		p.hists[name] = h
	}
	return h
}

// SetGauge registers a callback sampled at snapshot time, for values that
// are owned elsewhere (open-connection table size, queue depth). Re-setting
// a name replaces the previous callback.
func (p *Profile) SetGauge(name string, fn func() float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gauges[name] = fn
}

// Snapshot is an immutable view of a profile at one instant.
type Snapshot struct {
	Wall       time.Duration
	Counters   map[string]int64
	Timers     map[string]TimerStat
	Histograms map[string]HistogramSnapshot
	Gauges     map[string]float64
}

// TimerStat is the snapshot of one timer.
type TimerStat struct {
	Total time.Duration
	Count int64
}

// Snapshot captures all current values. Gauge callbacks are invoked while
// the profile lock is held; they must not call back into the profile.
func (p *Profile) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		Wall:       time.Since(p.started),
		Counters:   make(map[string]int64, len(p.counters)),
		Timers:     make(map[string]TimerStat, len(p.timers)),
		Histograms: make(map[string]HistogramSnapshot, len(p.hists)),
		Gauges:     make(map[string]float64, len(p.gauges)),
	}
	for name, c := range p.counters {
		s.Counters[name] = c.Value()
	}
	for name, t := range p.timers {
		s.Timers[name] = TimerStat{Total: t.Total(), Count: t.Count()}
	}
	for name, h := range p.hists {
		s.Histograms[name] = h.Snapshot()
	}
	for name, fn := range p.gauges {
		s.Gauges[name] = fn()
	}
	return s
}

// PercentOf returns timer name's share of the given busy time, as the paper
// reports function time as a percentage of execution.
func (s Snapshot) PercentOf(name string, busy time.Duration) float64 {
	if busy <= 0 {
		return 0
	}
	return 100 * float64(s.Timers[name].Total) / float64(busy)
}

// Report renders a flat-profile-style text report. Busy is the denominator
// for percentages; pass the measured server busy time (or the snapshot wall
// time for a rough report).
func (s Snapshot) Report(busy time.Duration) string {
	if busy <= 0 {
		busy = s.Wall
	}
	names := make([]string, 0, len(s.Timers))
	for n := range s.Timers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return s.Timers[names[i]].Total > s.Timers[names[j]].Total
	})
	var out strings.Builder
	fmt.Fprintf(&out, "profile (busy=%v):\n", busy.Round(time.Millisecond))
	for _, n := range names {
		t := s.Timers[n]
		fmt.Fprintf(&out, "  %-28s %7.2f%%  total=%-12v calls=%d\n",
			n, s.PercentOf(n, busy), t.Total.Round(time.Microsecond), t.Count)
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(&out, "  %-28s %s\n", n, h.String())
	}
	cnames := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		cnames = append(cnames, n)
	}
	sort.Strings(cnames)
	for _, n := range cnames {
		fmt.Fprintf(&out, "  %-28s %d\n", n, s.Counters[n])
	}
	gnames := make([]string, 0, len(s.Gauges))
	for n := range s.Gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		fmt.Fprintf(&out, "  %-28s %g\n", n, s.Gauges[n])
	}
	return out.String()
}

// Standard metric names used across the server so experiment code can
// aggregate without string drift.
const (
	MetricIPCTime        = "ipc.fd_request"      // time blocked requesting fds from the supervisor
	MetricIPCCount       = "ipc.fd_requests"     // number of fd requests issued
	MetricFDCacheHit     = "fdcache.hits"        // fd cache hits
	MetricFDCacheMiss    = "fdcache.misses"      // fd cache misses
	MetricIdleScanTime   = "connmgr.idle_scan"   // time in idle-connection search (lock held)
	MetricIdleScanVisits = "connmgr.scan_visits" // connection objects examined during scans
	MetricConnsAccepted  = "conn.accepted"
	MetricConnsClosed    = "conn.closed"
	MetricMsgsProcessed  = "proxy.messages"
	MetricTxnCreated     = "txn.created"
	MetricRetransmits    = "txn.retransmits"
	// MetricFinalRetransmits counts Timer G retransmissions of a non-2xx
	// INVITE final while the server transaction waits for its ACK.
	MetricFinalRetransmits = "txn.final_retransmits"
	MetricLockWaitTime     = "lock.conn_table"   // time waiting on the shared connection table lock
	MetricTimerLockWait    = "lock.timers"       // contended wait on the timer subsystem's lock(s)
	MetricTxnLockWait      = "lock.txn_shards"   // contended wait on transaction-table shard locks
	MetricSupervisorWork   = "supervisor.handle" // time the supervisor spends handling requests
	MetricProcessTime      = "worker.process"    // time workers spend processing SIP messages
	MetricSendTime         = "worker.send"       // time workers spend sending (incl. fd acquisition)
	MetricDBLookupTime     = "userdb.lookup"
	MetricLocLockWait      = "lock.location" // contended wait on location-service shard locks
	MetricParseErrors      = "proxy.parse_errors"
	MetricResolveHit       = "udp.resolve_hits"   // UDP destination names found in the resolve cache (literal ip:port targets skip it)
	MetricResolveMiss      = "udp.resolve_misses" // UDP destination names looked up by the resolver (literal ip:port targets skip it)

	// Overload-control counters (internal/overload): every new INVITE the
	// admission controller saw, and the split into admitted vs
	// rejected-with-503.
	MetricOverloadOffered  = "overload.offered"
	MetricOverloadAdmitted = "overload.admitted"
	MetricOverloadRejected = "overload.rejected"

	// IPC robustness counters: fd requests abandoned on the per-request
	// deadline, and the issued/closed balance for supervisor-granted
	// handles — equal counts after shutdown mean no descriptor leaked.
	MetricIPCTimeouts      = "ipc.fd_timeouts"
	MetricIPCHandlesIssued = "ipc.handles_issued"
	MetricIPCHandlesClosed = "ipc.handles_closed"
	// Sends on a passed descriptor that found the socket buffer full and
	// had to wait for the peer to read, and those abandoned (503, socket
	// shut down) because it did not within the fd-request deadline.
	MetricIPCWriteWaits    = "ipc.write_waits"
	MetricIPCWriteTimeouts = "ipc.write_timeouts"

	// Batched-I/O counters (internal/transport). Syscall counts divide into
	// message counts to give the syscalls-per-message amortization the
	// batching experiment reports: 1.0 on the unbatched paths, 1/batch when
	// recvmmsg/sendmmsg fill.
	MetricUDPRecvSyscalls = "udp.recv_syscalls"  // recvfrom/recvmmsg calls
	MetricUDPRecvMsgs     = "udp.recv_msgs"      // datagrams delivered by them
	MetricUDPSendSyscalls = "udp.send_syscalls"  // sendto/sendmmsg calls
	MetricUDPSendMsgs     = "udp.send_msgs"      // datagrams sent by them
	MetricUDPPoolDropped  = "udp.pool_dropped"   // receive buffers Release could not recycle
	MetricTCPWriteCalls   = "tcp.write_syscalls" // write calls on stream sends
	MetricTCPWriteMsgs    = "tcp.write_msgs"     // messages carried by them

	// Egress flush-reason counters: why each sendmmsg batch was cut.
	MetricEgressFlushFull   = "udp.egress_flush_full"   // batch reached capacity
	MetricEgressFlushDrain  = "udp.egress_flush_drain"  // worker drained after its receive batch
	MetricEgressFlushLinger = "udp.egress_flush_linger" // linger timer expired
	MetricEgressFlushClose  = "udp.egress_flush_close"  // final flush at shutdown

	// Registrar counters (internal/location): binding lifecycle events. A
	// REGISTER either creates a binding, refreshes one, or (Expires: 0)
	// removes one; "expired" counts bindings reclaimed by the expiry wheel.
	MetricLocRegistered   = "location.registered"
	MetricLocRefreshed    = "location.refreshed"
	MetricLocExpired      = "location.expired"
	MetricLocDeregistered = "location.deregistered"

	// Auth-cache counters (internal/userdb): credential-record cache in
	// front of the simulated SQL round-trip. A hit skips the pool slot and
	// the modelled query latency entirely.
	MetricAuthCacheHits      = "authcache.hits"
	MetricAuthCacheMisses    = "authcache.misses"
	MetricAuthCacheEvictions = "authcache.evictions"

	// TLS transport counters (internal/transport): handshake outcomes on
	// both roles (accepted and dialed), session-ticket key rotations, and —
	// for the process-pool architecture — sends that bypassed the fd
	// cache/IPC fabric because TLS crypto state pins a connection to its
	// owning process (SCM_RIGHTS would deliver a raw fd whose TLS session
	// lives in another process's memory).
	MetricTLSFullHandshakes    = "tls.full_handshakes"
	MetricTLSResumptions       = "tls.resumptions"
	MetricTLSHandshakeFailures = "tls.handshake_failures"
	MetricTLSTicketRotations   = "tls.ticket_rotations"
	MetricTLSPinnedSends       = "tls.pinned_sends"

	// Flight-recorder counters (internal/trace): timelines kept by the
	// tail-sampling decision, timelines lost (overwritten in the ring, or
	// never reaching a terminal response), calls whose span array
	// overflowed, and calls traced but not retained.
	MetricTraceRetained   = "trace.retained"
	MetricTraceDropped    = "trace.dropped"
	MetricTraceTruncated  = "trace.truncated"
	MetricTraceSampledOut = "trace.sampled_out"
)

// GaugeOpenConns is the snapshot-time size of the shared connection table
// (TCP architectures only; registered via SetGauge).
const GaugeOpenConns = "conn.open"

// Timer-subsystem gauges (registered via SetGauge by every server):
// resident timer population, and how many of those residents are cancelled
// corpses awaiting their deadline. The heap policy lets the second climb
// with retransmission-timer churn; the wheel policy pins it at zero by
// reclaiming slots on cancel. Scheduled and fired are the lifetime counts
// (fired ≤ scheduled).
const (
	GaugeTimersPending           = "timers.pending"
	GaugeTimersCancelledResident = "timers.cancelled_resident"
	GaugeTimersScheduled         = "timers.scheduled"
	GaugeTimersFired             = "timers.fired"
)

// Registrar gauges (registered via SetGauge): live binding population and
// the number of AORs holding at least one binding.
const (
	GaugeLocBindings = "location.bindings"
	GaugeLocAORs     = "location.aors"
)

// GaugeMsgPoolOutstanding is sipmsg's pool ledger: parsed messages handed
// out and not yet fully released (gets − puts). It is process-wide, idles
// at zero, and rides with load at the number of requests held by unanswered
// transactions plus the messages in workers' hands; a floor that climbs is
// a leaked reference. Registered by RegisterStandard.
const GaugeMsgPoolOutstanding = "msg.pool_outstanding"

// Per-stage latency histogram names: the paper's "where does the time go"
// question (§5, Figures 4/5) answered as live distributions rather than
// offline OProfile totals.
const (
	StageHandshake  = "stage.handshake"    // TLS handshake (full or resumed)
	StageParse      = "stage.parse"        // wire bytes → parsed message
	StageTxnMatch   = "stage.txn_match"    // transaction create/match
	StageDBQueue    = "stage.db_queue"     // wait for a free connection-pool slot
	StageDBLookup   = "stage.db_lookup"    // user-database query (pool wait excluded)
	StageFDIPC      = "stage.fd_ipc"       // blocked fd request to the supervisor
	StageFDCacheHit = "stage.fd_cache_hit" // fd acquisition served from the local cache
	StageSend       = "stage.send"         // forward/send incl. fd acquisition
	StageSupervisor = "stage.supervisor"   // supervisor handling one fd request
	StageProcess    = "stage.process"      // full per-message worker processing
	StageIdleScan   = "stage.idle_scan"    // one idle-connection scan (lock held)
)

// StageRetryAfter is the distribution of Retry-After delays advertised on
// 503 rejections — not a pipeline stage, but the same histogram machinery.
const StageRetryAfter = "overload.retry_after"

// Batch-occupancy histograms: how many datagrams each recvmmsg/sendmmsg
// call carried, recorded as a unitless count through the duration-keyed
// histogram machinery (1 "ns" = 1 datagram; the mean is mean occupancy).
const (
	HistRecvBatch = "batch.recv_occupancy"
	HistSendBatch = "batch.send_occupancy"
)

// StageNames lists every per-stage histogram in pipeline order, for
// reports that want a stable, complete stage table.
var StageNames = []string{
	StageHandshake, StageParse, StageTxnMatch, StageDBQueue, StageDBLookup,
	StageFDCacheHit, StageFDIPC, StageSend, StageSupervisor, StageProcess,
	StageIdleScan,
}

// standardCounters and standardTimers are every Metric* name, so
// RegisterStandard can pre-create them all.
var standardCounters = []string{
	MetricIPCCount, MetricFDCacheHit, MetricFDCacheMiss, MetricIdleScanVisits,
	MetricConnsAccepted, MetricConnsClosed, MetricMsgsProcessed,
	MetricTxnCreated, MetricRetransmits, MetricFinalRetransmits,
	MetricParseErrors,
	MetricResolveHit, MetricResolveMiss,
	MetricOverloadOffered, MetricOverloadAdmitted, MetricOverloadRejected,
	MetricIPCTimeouts,
	MetricIPCHandlesIssued, MetricIPCHandlesClosed,
	MetricIPCWriteWaits, MetricIPCWriteTimeouts,
	MetricUDPRecvSyscalls, MetricUDPRecvMsgs,
	MetricUDPSendSyscalls, MetricUDPSendMsgs, MetricUDPPoolDropped,
	MetricTCPWriteCalls, MetricTCPWriteMsgs,
	MetricEgressFlushFull, MetricEgressFlushDrain,
	MetricEgressFlushLinger, MetricEgressFlushClose,
	MetricLocRegistered, MetricLocRefreshed, MetricLocExpired,
	MetricLocDeregistered,
	MetricAuthCacheHits, MetricAuthCacheMisses, MetricAuthCacheEvictions,
	MetricTLSFullHandshakes, MetricTLSResumptions, MetricTLSHandshakeFailures,
	MetricTLSTicketRotations, MetricTLSPinnedSends,
	MetricTraceRetained, MetricTraceDropped, MetricTraceTruncated,
	MetricTraceSampledOut,
}

var standardTimers = []string{
	MetricIPCTime, MetricIdleScanTime, MetricLockWaitTime,
	MetricTimerLockWait, MetricTxnLockWait, MetricLocLockWait,
	MetricSupervisorWork, MetricProcessTime, MetricSendTime, MetricDBLookupTime,
}

// RegisterStandard pre-creates every standard counter, timer, and stage
// histogram so exported output (Report, /metrics) always carries the full
// name set — a registered name that never fires shows up as an explicit
// zero instead of being silently absent.
func (p *Profile) RegisterStandard() {
	for _, n := range standardCounters {
		p.Counter(n)
	}
	for _, n := range standardTimers {
		p.Timer(n)
	}
	for _, n := range StageNames {
		p.Histogram(n)
	}
	p.Histogram(StageRetryAfter)
	p.Histogram(HistRecvBatch)
	p.Histogram(HistSendBatch)
	p.SetGauge(GaugeMsgPoolOutstanding, func() float64 { return float64(sipmsg.PoolOutstanding()) })
}
