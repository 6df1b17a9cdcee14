// Package trace provides sampled per-call span tracing and a tail-sampling
// flight recorder: the per-request complement to the aggregate per-stage
// histograms in package metrics.
//
// A histogram's P99 bucket cannot say which stage combination made one
// specific call slow — whether the outlier was a retransmission storm, an
// fd-IPC round trip, a DB pool wait, or an overload shed. The tracer
// answers that: when enabled, every request carries a pooled Context whose
// fixed span array records where its time went (parse → admission → txn
// match → auth/db → location → fd IPC/cache → send → retransmit), and at
// the terminal response the flight recorder keeps the complete timeline
// only for calls that ended slow, failed, or were head-sampled. Everything
// else recycles with zero allocations.
//
// Contexts ride the pooled sipmsg.Message (an opaque slot, released back
// here through sipmsg.TraceRelease when the message's last reference
// drops), so the tracer adds no lifetime management of its own: a context
// lives exactly as long as its request is referenced anywhere — receive
// loop, transaction table, retransmission timer.
package trace

import (
	"sync"
	"time"
)

// Stage labels one segment of a call's timeline. The set mirrors the
// metrics.Stage* histogram names plus the "gap" stages (queue, wait_down)
// that cover time spent between pipeline stages, so a timeline's spans can
// account for (nearly) the whole end-to-end latency.
type Stage uint8

// Pipeline stages in rough flow order.
const (
	StageParse      Stage = iota // wire bytes → parsed message
	StageQueue                   // wait for the worker that runs the message (tcp: its lock)
	StageAdmission               // overload-controller decision
	StageTxn                     // transaction create/match
	StageLocation                // location-service lookup / register
	StageDBQueue                 // wait for a free DB pool slot
	StageDBLookup                // user-database query
	StageFDCache                 // fd acquisition served from the local cache
	StageFDIPC                   // blocked fd request to the supervisor
	StageSend                    // serialize + socket send (incl. fd acquisition)
	StageWaitDown                // waiting on the downstream party's response
	StageRetransmit              // one retransmission of the forwarded request
	StageState                   // a transaction state-machine transition (absorb/ACK/final)
	// StageHandshake is the TLS handshake of the connection a request
	// arrived on (attached to the first traced request of the connection)
	// or of a connection dialed to forward it. For an accepted connection
	// the handshake precedes the request's parse, so the span's Start
	// offset is negative — the one span allowed to sit before the origin.
	StageHandshake
	numStages
)

var stageNames = [numStages]string{
	"parse", "queue", "admission", "txn_match", "location",
	"db_queue", "db_lookup", "fd_cache_hit", "fd_ipc", "send",
	"wait_down", "retransmit", "state", "handshake",
}

// String returns the stage's snake_case name (matching the metrics
// histogram suffixes where a counterpart exists).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one recorded segment: a stage, its offset from the call's start,
// and its duration. Spans may nest (StageFDIPC inside StageSend); interval
// union, not plain summation, recovers total accounted time.
type Span struct {
	Stage Stage
	Start time.Duration // offset from the context's start
	Dur   time.Duration
}

// MaxSpans is the per-call span capacity. A clean INVITE round trip uses
// about a dozen spans; the headroom absorbs a few retransmissions before
// recording starts counting truncations instead.
const MaxSpans = 24

// Context is the per-call trace state riding a request Message. All methods
// are safe on a nil receiver (tracing disabled) and safe for concurrent use
// (a retransmission timer may record while a worker handles the response);
// the mutex is uncontended in practice, so recording stays in the tens of
// nanoseconds with zero allocations.
type Context struct {
	mu          sync.Mutex
	rec         *Recorder
	seq         uint64
	start       time.Time
	callID      string // aliases the request's immutable raw copy
	method      string
	headSampled bool
	finished    bool
	truncated   int
	n           int
	spans       [MaxSpans]Span
}

// Span records a segment of stage s that began at start and ends now.
func (c *Context) Span(s Stage, start time.Time) {
	if c == nil {
		return
	}
	c.add(s, start, time.Since(start))
}

// Add records a segment of stage s with an externally measured duration.
func (c *Context) Add(s Stage, start time.Time, d time.Duration) {
	if c == nil {
		return
	}
	c.add(s, start, d)
}

func (c *Context) add(s Stage, start time.Time, d time.Duration) {
	c.mu.Lock()
	if !c.finished {
		if c.n < MaxSpans {
			c.spans[c.n] = Span{Stage: s, Start: start.Sub(c.start), Dur: d}
			c.n++
		} else {
			c.truncated++
		}
	}
	c.mu.Unlock()
}

// Gap records a span of stage s covering the otherwise unaccounted time
// from the end of the last recorded span (or the call's start) up to now.
// This is how inter-stage waits — a TCP reader's wait for its worker's
// lock, the wait for the downstream party's response — enter the timeline
// without a start timestamp having to be threaded through the intervening
// layers.
func (c *Context) Gap(s Stage, now time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if !c.finished {
		if c.n < MaxSpans {
			// The gap starts where accounted time ends: the max span end,
			// not the last appended span's — nested detail (fd IPC inside
			// send) and pre-origin handshake spans append out of end order.
			var end time.Duration
			for i := 0; i < c.n; i++ {
				if e := c.spans[i].Start + c.spans[i].Dur; e > end {
					end = e
				}
			}
			if off := now.Sub(c.start); off > end {
				c.spans[c.n] = Span{Stage: s, Start: end, Dur: off - end}
				c.n++
			}
		} else {
			c.truncated++
		}
	}
	c.mu.Unlock()
}

// Finish closes the timeline with the call's terminal status code and runs
// the tail-sampling decision: the trace is retained (snapshotted into the
// flight recorder) when the call was slow, failed, or head-sampled, and
// silently recycled otherwise. Finish is idempotent; spans recorded after
// it (a late retransmission firing before the timer is reaped) are no-ops.
//
// 401/407 digest challenges do not count as failures: they are a normal
// step of the auth handshake, and retaining every first-attempt INVITE
// under an authenticating proxy would bury the actual tail.
func (c *Context) Finish(status int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	c.finished = true
	e2e := time.Since(c.start)
	r := c.rec
	slow := r.cfg.Slow > 0 && e2e >= r.cfg.Slow
	failed := status >= 400 && status != 401 && status != 407
	if !slow && !failed && !c.headSampled {
		c.mu.Unlock()
		r.sampledOut.Inc()
		return
	}
	t := &Trace{
		Seq:       c.seq,
		CallID:    c.callID,
		Method:    c.method,
		Status:    status,
		Slow:      slow,
		Failed:    failed,
		Sampled:   c.headSampled,
		Start:     c.start,
		E2E:       e2e,
		Truncated: c.truncated,
		Spans:     make([]Span, c.n),
	}
	copy(t.Spans, c.spans[:c.n])
	if c.truncated > 0 {
		r.truncated.Inc()
	}
	c.mu.Unlock()
	r.push(t)
}

// Finished reports whether the timeline has been closed.
func (c *Context) Finished() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	f := c.finished
	c.mu.Unlock()
	return f
}

// reset prepares the context for pool reuse.
func (c *Context) reset() {
	c.rec = nil
	c.seq = 0
	c.start = time.Time{}
	c.callID = ""
	c.method = ""
	c.headSampled = false
	c.finished = false
	c.truncated = 0
	c.n = 0
}

// Trace is the immutable snapshot of one retained call timeline, the unit
// the flight-recorder ring stores and /trace serves. Allocated only on the
// (rare) retain path.
type Trace struct {
	Seq       uint64
	CallID    string
	Method    string
	Status    int
	Slow      bool
	Failed    bool
	Sampled   bool
	Start     time.Time
	E2E       time.Duration
	Truncated int
	Spans     []Span
}

// Reason names why the trace was retained, in priority order.
func (t *Trace) Reason() string {
	switch {
	case t.Failed:
		return "failed"
	case t.Slow:
		return "slow"
	default:
		return "sampled"
	}
}

// StageTotal sums the duration of every span of stage s.
func (t *Trace) StageTotal(s Stage) time.Duration {
	var sum time.Duration
	for _, sp := range t.Spans {
		if sp.Stage == s {
			sum += sp.Dur
		}
	}
	return sum
}

// Coverage returns the interval union of all spans: the portion of the
// end-to-end latency the timeline accounts for. Union rather than sum,
// because detail spans nest inside coarser ones (fd IPC inside send).
func (t *Trace) Coverage() time.Duration {
	n := len(t.Spans)
	if n == 0 {
		return 0
	}
	// Spans are appended in start order except for nested detail recorded
	// by inner layers; sort a small scratch copy by start offset.
	order := make([]Span, n)
	copy(order, t.Spans)
	for i := 1; i < n; i++ { // insertion sort: n ≤ MaxSpans
		for j := i; j > 0 && order[j].Start < order[j-1].Start; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var total time.Duration
	curStart, curEnd := order[0].Start, order[0].Start+order[0].Dur
	for _, sp := range order[1:] {
		end := sp.Start + sp.Dur
		if sp.Start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = sp.Start, end
			continue
		}
		if end > curEnd {
			curEnd = end
		}
	}
	return total + (curEnd - curStart)
}
