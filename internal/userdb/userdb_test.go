package userdb

import (
	"sync"
	"testing"
	"time"

	"gosip/internal/metrics"
)

func TestProvisionAndLookup(t *testing.T) {
	db := New(Config{}, metrics.NewProfile())
	db.Provision(User{Username: "alice", Domain: "example.com"})
	u, err := db.Lookup("alice", "example.com")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if u.Username != "alice" {
		t.Errorf("user = %+v", u)
	}
	if _, err := db.Lookup("bob", "example.com"); err != ErrNotFound {
		t.Errorf("missing user: err = %v", err)
	}
	if !db.Exists("alice", "example.com") || db.Exists("bob", "example.com") {
		t.Error("Exists wrong")
	}
}

func TestProvisionN(t *testing.T) {
	db := New(Config{}, metrics.NewProfile())
	db.ProvisionN(250, "bench.local")
	if db.Len() != 250 {
		t.Errorf("Len = %d", db.Len())
	}
	for _, i := range []int{0, 1, 42, 249} {
		if !db.Exists(UserName(i), "bench.local") {
			t.Errorf("user %d missing", i)
		}
	}
	if UserName(0) != "user0" || UserName(123) != "user123" {
		t.Errorf("UserName formatting: %q %q", UserName(0), UserName(123))
	}
}

// plainBackend is a Backend without the bulk path.
type plainBackend struct{ users map[string]User }

func (p *plainBackend) Fetch(key string) (User, bool) { u, ok := p.users[key]; return u, ok }
func (p *plainBackend) Store(key string, u User)      { p.users[key] = u }
func (p *plainBackend) Len() int                      { return len(p.users) }

// TestProvisionNStoresWhatProvisionDoes holds the bulk path to the contents
// n single Provision calls leave behind, on a backend with the bulk insert,
// on one without it, and on top of users already present.
func TestProvisionNStoresWhatProvisionDoes(t *testing.T) {
	const n, domain = 1200, "bench.local"
	want := New(Config{}, metrics.NewProfile())
	want.Provision(User{Username: "alice", Domain: domain, Password: "pw"})
	for i := 0; i < n; i++ {
		want.Provision(User{Username: UserName(i), Domain: domain, Password: PasswordFor(UserName(i))})
	}
	for name, be := range map[string]Backend{"memory": NewMemoryBackend(), "sql": NewSQLBackend(0), "plain": &plainBackend{users: map[string]User{}}} {
		db := New(Config{Backend: be}, metrics.NewProfile())
		db.Provision(User{Username: "alice", Domain: domain, Password: "pw"})
		db.ProvisionN(n, domain)
		if db.Len() != want.Len() {
			t.Errorf("%s: Len = %d, want %d", name, db.Len(), want.Len())
		}
		for _, user := range []string{"alice", UserName(0), UserName(9), UserName(10), UserName(n - 1)} {
			got, err := db.Lookup(user, domain)
			exp, _ := want.Lookup(user, domain)
			if err != nil || got != exp {
				t.Errorf("%s: Lookup(%s) = %+v, %v; want %+v", name, user, got, err, exp)
			}
		}
		if _, err := db.Lookup(UserName(n), domain); err == nil {
			t.Errorf("%s: user %d exists", name, n)
		}
	}
}

func TestLookupLatencyApplied(t *testing.T) {
	prof := metrics.NewProfile()
	db := New(Config{LookupLatency: 10 * time.Millisecond}, prof)
	db.Provision(User{Username: "a", Domain: "d"})
	start := time.Now()
	db.Lookup("a", "d")
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("lookup took %v, want >= 10ms", elapsed)
	}
	if prof.Timer(metrics.MetricDBLookupTime).Count() != 1 {
		t.Error("lookup time not recorded")
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	db := New(Config{LookupLatency: 5 * time.Millisecond, PoolSize: 2}, metrics.NewProfile())
	db.Provision(User{Username: "a", Domain: "d"})
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db.Lookup("a", "d")
		}()
	}
	wg.Wait()
	// 6 lookups / pool of 2 at 5 ms each => at least 3 serialized waves.
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("pool not enforced: 6 lookups in %v", elapsed)
	}
}

func TestConcurrentProvisionLookup(t *testing.T) {
	db := New(Config{}, metrics.NewProfile())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.Provision(User{Username: UserName(g*200 + i), Domain: "d"})
				db.Lookup(UserName(i), "d")
			}
		}(g)
	}
	wg.Wait()
	if db.Len() != 800 {
		t.Errorf("Len = %d, want 800", db.Len())
	}
}
