package userdb

import "sync"

// Backend is the pluggable storage driver behind DB, as a real registrar
// would swap an in-memory table for a SQL subscriber database; tests
// substitute their own through it. Keys are the canonical
// "username@domain" form.
type Backend interface {
	// Fetch returns the user stored under key.
	Fetch(key string) (User, bool)
	// Store inserts or replaces the user under key.
	Store(key string, u User)
	// Len returns the number of stored users.
	Len() int
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

// storeN is the bulk insert behind DB.ProvisionN: n users, produced one at
// a time by gen, stored under one lock acquisition. An empty table is sized
// for the batch, so filling it never rehashes.
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
