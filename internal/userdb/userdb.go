// Package userdb is the persistent-storage substrate standing in for the
// MySQL instance the paper's testbed used. Storage is pluggable through
// the Backend interface — an in-memory table by default — fronted by a
// modelled per-query latency, a bounded connection pool and an optional
// credential cache, so the proxy exercises the same "possibly involving a
// database lookup" path (Ram et al. §3) without an external dependency. The in-memory lookup path allocates nothing: the
// "username@domain" key is assembled in a stack buffer and probed in
// place, never materialized per call.
package userdb

import (
	"errors"
	"strconv"
	"time"

	"gosip/internal/metrics"
	"gosip/internal/trace"
)

// User is a provisioned subscriber.
type User struct {
	Username string
	Domain   string
	// Password backs digest authentication when the proxy runs with auth
	// enabled; unauthenticated workloads store but never read it.
	Password string
}

// ErrNotFound is returned for unknown users.
var ErrNotFound = errors.New("userdb: user not found")

// Config models the characteristics of the backing database.
type Config struct {
	// LookupLatency is the simulated round-trip per query (0 = in-memory).
	LookupLatency time.Duration
	// PoolSize bounds concurrent queries, like a SQL connection pool
	// (0 = unbounded).
	PoolSize int
	// Backend is the storage driver (nil = a fresh MemoryBackend).
	Backend Backend
	// Cache bounds the credential cache in front of the backend; the zero
	// value disables it.
	Cache CacheConfig
}

// DB is the user store.
type DB struct {
	backend Backend
	// mem short-circuits the interface when the backend is the in-memory
	// driver: the map is probed straight from the stack key buffer, which
	// an interface call cannot do (passing string(buf) through Fetch would
	// heap-allocate the key), and ProvisionN fills it under one lock.
	mem *MemoryBackend

	cfg   Config
	pool  chan struct{}
	cache *authCache

	lookupTime *metrics.Timer
	queueHist  *metrics.Histogram
	lookupHist *metrics.Histogram
}

// New creates a store over cfg.Backend (a fresh in-memory backend when
// nil).
func New(cfg Config, profile *metrics.Profile) *DB {
	be := cfg.Backend
	if be == nil {
		be = NewMemoryBackend()
	}
	db := &DB{
		backend:    be,
		cfg:        cfg,
		cache:      newAuthCache(cfg.Cache, profile),
		lookupTime: profile.Timer(metrics.MetricDBLookupTime),
		queueHist:  profile.Histogram(metrics.StageDBQueue),
		lookupHist: profile.Histogram(metrics.StageDBLookup),
	}
	if mem, ok := be.(*MemoryBackend); ok {
		db.mem = mem
	}
	if cfg.PoolSize > 0 {
		db.pool = make(chan struct{}, cfg.PoolSize)
	}
	return db
}

// Provision inserts or updates a user, invalidating any cached credential
// so the change takes effect immediately.
func (db *DB) Provision(u User) {
	key := u.Username + "@" + u.Domain
	db.backend.Store(key, u)
	if db.cache != nil {
		db.cache.invalidate(key)
	}
}

// ProvisionN bulk-creates n users "user<i>@domain", as the benchmark
// manager does before an experiment. It sits on every server's start-up
// path, so each user costs one string — "secret-user<i>@domain", of which
// the password, the username and the storage key are views — and an
// in-memory backend is sized and locked once for the whole batch.
func (db *DB) ProvisionN(n int, domain string) {
	gen := func(i int) (string, User) {
		var b [64]byte
		buf := strconv.AppendInt(append(b[:0], passwordPrefix+userPrefix...), int64(i), 10)
		nameLen := len(buf) - len(passwordPrefix)
		all := string(append(append(buf, '@'), domain...))
		key := all[len(passwordPrefix):]
		return key, User{Username: key[:nameLen], Domain: domain, Password: all[:len(passwordPrefix)+nameLen]}
	}
	if db.mem != nil {
		db.mem.storeN(n, gen)
	} else {
		for i := 0; i < n; i++ {
			db.backend.Store(gen(i))
		}
	}
	if db.cache != nil {
		db.cache.flush()
	}
}

// What ProvisionN, UserName and PasswordFor agree on.
const (
	userPrefix     = "user"
	passwordPrefix = "secret-"
)

// userName formats the canonical benchmark username for index i.
func userName(i int) string { return userPrefix + strconv.Itoa(i) }

// UserName exposes the canonical benchmark username for index i.
func UserName(i int) string { return userName(i) }

// PasswordFor is the deterministic password assigned to a provisioned
// benchmark user, shared knowledge between the server and the simulated
// phones (as a real deployment's SIM credentials would be).
func PasswordFor(username string) string { return passwordPrefix + username }

// Lookup fetches a user. A credential-cache hit returns immediately —
// skipping the pool slot and the simulated round-trip entirely. A miss
// pays the full path: pool-slot wait (recorded as stage.db_queue), then
// the query itself (stage.db_lookup; the userdb.lookup timer carries the
// sum, which is what the caller experienced).
func (db *DB) Lookup(username, domain string) (User, error) {
	return db.LookupTraced(nil, username, domain)
}

// LookupTraced is Lookup with per-call span attribution: the pool-slot
// wait and the query land on tc's timeline as db_queue and db_lookup in
// addition to the aggregate histograms. A nil tc (tracing disabled or the
// call sampled out) costs nothing extra.
func (db *DB) LookupTraced(tc *trace.Context, username, domain string) (User, error) {
	var stack [96]byte
	key := stack[:0]
	if len(username)+1+len(domain) > len(stack) {
		key = make([]byte, 0, len(username)+1+len(domain))
	}
	key = append(key, username...)
	key = append(key, '@')
	key = append(key, domain...)

	if db.cache != nil {
		if u, ok := db.cache.get(key, time.Now().UnixNano()); ok {
			return u, nil
		}
	}

	start := time.Now()
	if db.pool != nil {
		db.pool <- struct{}{}
	}
	queued := time.Now()
	db.queueHist.Record(queued.Sub(start))
	tc.Add(trace.StageDBQueue, start, queued.Sub(start))
	if db.cfg.LookupLatency > 0 {
		time.Sleep(db.cfg.LookupLatency)
	}
	var (
		u  User
		ok bool
	)
	if db.mem != nil {
		u, ok = db.mem.get(key)
	} else {
		u, ok = db.backend.Fetch(string(key))
	}
	end := time.Now()
	db.lookupHist.Record(end.Sub(queued))
	db.lookupTime.AddDuration(end.Sub(start))
	tc.Add(trace.StageDBLookup, queued, end.Sub(queued))
	if db.pool != nil {
		<-db.pool
	}
	if !ok {
		return User{}, ErrNotFound
	}
	if db.cache != nil {
		db.cache.put(string(key), u, time.Now().UnixNano())
	}
	return u, nil
}

// Exists reports whether the user is provisioned (same cost as Lookup).
func (db *DB) Exists(username, domain string) bool {
	_, err := db.Lookup(username, domain)
	return err == nil
}

// Len returns the number of provisioned users.
func (db *DB) Len() int { return db.backend.Len() }

// CacheLen reports resident credential-cache entries (0 when disabled).
func (db *DB) CacheLen() int {
	if db.cache == nil {
		return 0
	}
	return db.cache.len()
}
