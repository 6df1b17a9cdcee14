package sipmsg

import "testing"

// Allocation regression tests for the message fast path. The bounds pin the
// zero-allocation work: a regression that reintroduces per-header or
// per-line allocations fails these immediately rather than showing up as a
// slow drift in benchmark dashboards. All bounds leave one alloc of
// headroom over the measured steady state so runtime-version noise does not
// flake the suite.

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
}

// TestParseAllocs bounds the pooled steady state: with the message released
// back to the pool each cycle, parsing costs only the single retained copy
// of the head bytes.
func TestParseAllocs(t *testing.T) {
	skipIfRace(t)
	data := []byte(sampleInvite)
	// Warm the pool so the first run's pool misses are not counted.
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	m.Release()
	got := testing.AllocsPerRun(500, func() {
		m, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if got > 2 {
		t.Errorf("Parse+Release allocates %.1f/op, want <= 2", got)
	}
}

// TestParseAllocsUnpooled bounds the worst case where every message is
// leaked to the GC (no Release): each cycle pays for the Message, its
// Headers backing array, and the head copy.
func TestParseAllocsUnpooled(t *testing.T) {
	skipIfRace(t)
	data := []byte(sampleInvite)
	got := testing.AllocsPerRun(500, func() {
		if _, err := Parse(data); err != nil {
			t.Fatal(err)
		}
	})
	if got > 6 {
		t.Errorf("Parse without Release allocates %.1f/op, want <= 6", got)
	}
}

// TestSerializeAllocsCached bounds repeat serialization of an unmodified
// message: after the first call builds the wire image, every subsequent
// call must return the cached bytes without allocating.
func TestSerializeAllocsCached(t *testing.T) {
	skipIfRace(t)
	m, err := Parse([]byte(sampleInvite))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	_ = m.Serialize() // build the cache
	got := testing.AllocsPerRun(500, func() {
		_ = m.Serialize()
	})
	if got > 1 {
		t.Errorf("cached Serialize allocates %.1f/op, want <= 1", got)
	}
}

// TestSerializeAllocsUncached bounds serialization after a mutation:
// Invalidate drops the wire buffer (an in-flight caller may still hold the
// old slice), so a fresh buffer is the one permitted allocation.
func TestSerializeAllocsUncached(t *testing.T) {
	skipIfRace(t)
	m, err := Parse([]byte(sampleInvite))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	got := testing.AllocsPerRun(500, func() {
		m.Invalidate()
		_ = m.Serialize()
	})
	if got > 2 {
		t.Errorf("uncached Serialize allocates %.1f/op, want <= 2", got)
	}
}

// repeatReader returns one copy of wire per Read, forever: a peer that
// sends one message and waits for the answer.
type repeatReader struct{ wire []byte }

func (r repeatReader) Read(p []byte) (int, error) { return copy(p, r.wire), nil }

// TestStreamNextAllocs bounds the TCP framing path: the Reader borrows its
// buffer, reads one message into it, carves the message out and gives the
// buffer back, at no cost beyond the message's retained head copy.
func TestStreamNextAllocs(t *testing.T) {
	skipIfRace(t)
	// An exactly-framed wire image: sampleInvite carries trailing bytes
	// beyond its Content-Length, which datagram parsing ignores but which
	// would desynchronize the stream framer.
	wire := append([]byte(nil), buildTestRequest(7).Serialize()...)
	r := NewReader(repeatReader{wire})
	// Warm the buffer pool and the message pool.
	m, err := r.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	m.Release()
	got := testing.AllocsPerRun(500, func() {
		m, err := r.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if got > 2 {
		t.Errorf("ReadMessage+Release allocates %.1f/op, want <= 2", got)
	}
}
