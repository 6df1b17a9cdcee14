package userdb

import (
	"sync"
	"time"
)

// Backend is the pluggable storage driver behind DB, as a real registrar
// would swap an in-memory table for a SQL subscriber database. Keys are
// the canonical "username@domain" form.
type Backend interface {
	// Fetch returns the user stored under key.
	Fetch(key string) (User, bool)
	// Store inserts or replaces the user under key.
	Store(key string, u User)
	// Len returns the number of stored users.
	Len() int
}

// bulkStorer is a Backend's optional bulk insert: n users, produced one at a
// time by gen, stored under one lock acquisition.
type bulkStorer interface {
	storeN(n int, gen func(i int) (key string, u User))
}

// MemoryBackend is the default driver: a mutex-guarded map. It is the only
// backend the zero-allocation lookup fast path applies to — DB probes its
// map directly from a stack key buffer, skipping the interface call (which
// would force the key bytes onto the heap).
type MemoryBackend struct {
	mu    sync.RWMutex
	users map[string]User
}

// NewMemoryBackend creates an empty in-memory backend.
func NewMemoryBackend() *MemoryBackend {
	return &MemoryBackend{users: make(map[string]User)}
}

// Fetch implements Backend.
func (m *MemoryBackend) Fetch(key string) (User, bool) {
	m.mu.RLock()
	u, ok := m.users[key]
	m.mu.RUnlock()
	return u, ok
}

// get is Fetch for a stack-assembled key: the map probe runs over the
// bytes in place (the compiler elides the string conversion inside a map
// index), so no key string is materialized.
func (m *MemoryBackend) get(key []byte) (User, bool) {
	m.mu.RLock()
	u, ok := m.users[string(key)]
	m.mu.RUnlock()
	return u, ok
}

// Store implements Backend.
func (m *MemoryBackend) Store(key string, u User) {
	m.mu.Lock()
	m.users[key] = u
	m.mu.Unlock()
}

// storeN implements bulkStorer. An empty table is sized for the batch, so
// filling it never rehashes.
func (m *MemoryBackend) storeN(n int, gen func(i int) (string, User)) {
	m.mu.Lock()
	if len(m.users) == 0 {
		m.users = make(map[string]User, n)
	}
	for i := 0; i < n; i++ {
		key, u := gen(i)
		m.users[key] = u
	}
	m.mu.Unlock()
}

// Len implements Backend.
func (m *MemoryBackend) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.users)
}

// SQLBackend models an external SQL subscriber database: the same map
// storage, but every Fetch pays a per-query latency, the way the paper's
// testbed consulted a MySQL instance ("possibly involving a database
// lookup", Ram et al. §3). It exists so experiments can contrast the
// in-memory and database-backed registrar tiers — and so the auth cache
// has a realistic round-trip to hide.
type SQLBackend struct {
	mem *MemoryBackend
	// QueryLatency is the simulated per-Fetch round-trip.
	QueryLatency time.Duration
}

// NewSQLBackend creates an empty latency-modelled backend.
func NewSQLBackend(queryLatency time.Duration) *SQLBackend {
	return &SQLBackend{mem: NewMemoryBackend(), QueryLatency: queryLatency}
}

// Fetch implements Backend, paying the modelled query latency.
func (s *SQLBackend) Fetch(key string) (User, bool) {
	if s.QueryLatency > 0 {
		time.Sleep(s.QueryLatency)
	}
	return s.mem.Fetch(key)
}

// Store implements Backend. Provisioning is experiment setup, not the
// serving path, so it pays no latency.
func (s *SQLBackend) Store(key string, u User) { s.mem.Store(key, u) }

func (s *SQLBackend) storeN(n int, gen func(i int) (string, User)) { s.mem.storeN(n, gen) }

// Len implements Backend.
func (s *SQLBackend) Len() int { return s.mem.Len() }
