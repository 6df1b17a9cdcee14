// Package fdcache implements the per-worker file-descriptor cache of
// Figure 4 (Ram et al. §5.2): a per-process mapping from TCP connection
// objects to socket descriptors. Before asking the supervisor for a
// descriptor, the worker consults its cache; a hit avoids both the IPC
// round-trip and the wait on the (serialized) supervisor. A miss falls
// through to the supervisor and the received handle is cached for reuse.
//
// The cache is per-worker and accessed only by the holder of its worker's
// lock, mirroring process-private memory, so it needs no locking of its
// own.
package fdcache

import (
	"time"

	"gosip/internal/conn"
	"gosip/internal/ipc"
	"gosip/internal/metrics"
)

// Cache is one worker's fd cache.
type Cache struct {
	entries map[conn.ID]*entry
	// lru is a doubly linked list by recency; front = most recent.
	head, tail *entry
	capacity   int

	hits    *metrics.Counter
	misses  *metrics.Counter
	hitHist *metrics.Histogram
}

type entry struct {
	id         conn.ID
	handle     *ipc.Handle
	prev, next *entry
}

// New creates a cache bounded to capacity handles (0 means unbounded).
// Bounding matters in unix-IPC mode, where every cached handle pins a real
// file descriptor.
func New(capacity int, profile *metrics.Profile) *Cache {
	return &Cache{
		entries:  make(map[conn.ID]*entry),
		capacity: capacity,
		hits:     profile.Counter(metrics.MetricFDCacheHit),
		misses:   profile.Counter(metrics.MetricFDCacheMiss),
		hitHist:  profile.Histogram(metrics.StageFDCacheHit),
	}
}

// Get returns a cached, still-valid handle for the connection, or nil.
// Handles whose connection object has been destroyed are evicted on the
// spot — the validity check that keeps a cached descriptor from outliving
// its connection.
func (c *Cache) Get(id conn.ID) *ipc.Handle {
	start := time.Now()
	e, ok := c.entries[id]
	if !ok {
		c.misses.Inc()
		return nil
	}
	if !e.handle.Valid() {
		c.remove(e)
		e.handle.Close()
		c.misses.Inc()
		return nil
	}
	c.moveToFront(e)
	c.hits.Inc()
	// The hit-path histogram is the distribution the paper's Figure 4
	// story predicts: descriptor acquisition collapsing from an IPC
	// round-trip (stage.fd_ipc) to a local map probe.
	c.hitHist.Record(time.Since(start))
	return e.handle
}

// Put stores a handle obtained from the supervisor. If the cache is at
// capacity the least-recently-used handle is closed and evicted. Invalid
// handles are not cached — but they are closed: in unix mode a handle
// whose connection died between RequestFD and Put still pins a duplicated
// descriptor, which silently dropping it here would leak.
func (c *Cache) Put(id conn.ID, h *ipc.Handle) {
	if h == nil {
		return
	}
	if !h.Valid() {
		h.Close()
		return
	}
	if e, ok := c.entries[id]; ok {
		// Replace: close the superseded handle.
		if e.handle != h {
			e.handle.Close()
			e.handle = h
		}
		c.moveToFront(e)
		return
	}
	e := &entry{id: id, handle: h}
	c.entries[id] = e
	c.pushFront(e)
	if c.capacity > 0 && len(c.entries) > c.capacity {
		c.evictOldest()
	}
}

// Invalidate drops the cached handle for a connection (e.g. when the
// worker learns the connection failed) and closes it.
func (c *Cache) Invalidate(id conn.ID) {
	if e, ok := c.entries[id]; ok {
		c.remove(e)
		e.handle.Close()
	}
}

// Sweep evicts every cached handle whose connection has been destroyed and
// returns how many were dropped. Workers run this alongside their idle
// scans so closed connections do not pin descriptors.
func (c *Cache) Sweep() int {
	n := 0
	for e := c.tail; e != nil; {
		prev := e.prev
		if !e.handle.Valid() {
			c.remove(e)
			e.handle.Close()
			n++
		}
		e = prev
	}
	return n
}

// Len returns the number of cached handles.
func (c *Cache) Len() int { return len(c.entries) }

// Cap returns the configured capacity (0 = unbounded).
func (c *Cache) Cap() int { return c.capacity }

// Close drops and closes everything.
func (c *Cache) Close() {
	for _, e := range c.entries {
		e.handle.Close()
	}
	c.entries = make(map[conn.ID]*entry)
	c.head, c.tail = nil, nil
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) remove(e *entry) {
	c.unlink(e)
	delete(c.entries, e.id)
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) evictOldest() {
	if c.tail == nil {
		return
	}
	e := c.tail
	c.remove(e)
	e.handle.Close()
}
