package sched

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/distmine"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/text"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

// TestMain fails the run if goroutines outlive the suite: pools, members
// and daemons must all wind down when their tests close them.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if !goroutinesSettle(baseline) {
		code = 1
	}
	os.Exit(code)
}

// goroutinesSettle waits up to 5 s for the goroutine count to fall back
// to baseline. If it does not, it prints every goroutine's stack, so the
// leaked wait names itself, and reports false.
func goroutinesSettle(baseline int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	n := runtime.NumGoroutine()
	if n <= baseline {
		return true
	}
	fmt.Fprintf(os.Stderr, "goroutines leaked: %d > baseline %d\n", n, baseline)
	pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
	return false
}

var fastRetry = transport.RetryPolicy{Attempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

// testLogf returns a t.Logf that goes quiet once the test finishes:
// pool and membership goroutines log asynchronously during teardown,
// after the testing framework forbids further Log calls. Call it first
// in a test so its disabling cleanup runs after every other cleanup.
func testLogf(t *testing.T) func(string, ...any) {
	var mu sync.Mutex
	done := false
	t.Cleanup(func() {
		mu.Lock()
		done = true
		mu.Unlock()
	})
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Logf(format, args...)
		}
	}
}

func buildDB(t testing.TB, cfg corpus.Config) *txdb.DB {
	t.Helper()
	docs, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := text.ToDB(docs, nil)
	return db
}

// pmihpRef is the in-process reference every session is checked against.
func pmihpRef(t *testing.T, db *txdb.DB, opts mining.Options) []itemset.Counted {
	t.Helper()
	r, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r.Result.Frequent
}

func requireIdentical(t *testing.T, label string, want []itemset.Counted, got *distmine.Result) {
	t.Helper()
	if len(got.Frequent) != len(want) {
		t.Fatalf("%s: frequent list length %d, want %d", label, len(got.Frequent), len(want))
	}
	for i := range want {
		if !want[i].Set.Equal(got.Frequent[i].Set) || want[i].Count != got.Frequent[i].Count {
			t.Fatalf("%s: entry %d: got %v/%d, want %v/%d",
				label, i, got.Frequent[i].Set, got.Frequent[i].Count, want[i].Set, want[i].Count)
		}
	}
}

// startPool serves a Pool on loopback and returns it with its address.
func startPool(t *testing.T, opt PoolOptions) (*Pool, string) {
	t.Helper()
	if opt.HeartbeatTimeout <= 0 {
		opt.HeartbeatTimeout = 2 * time.Second
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(opt)
	go p.Serve(ln)
	t.Cleanup(p.Close)
	return p, ln.Addr().String()
}

// startWorkers boots n node daemons on loopback and joins each to the
// pool, returning the daemons (for orphan checks) and their addresses.
func startWorkers(t *testing.T, n int, poolAddr string, capacity int64, logf func(string, ...any)) ([]*distmine.Daemon, []string) {
	t.Helper()
	daemons := make([]*distmine.Daemon, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		d := distmine.NewDaemon(distmine.DaemonOptions{Retry: fastRetry, Logf: logf})
		go d.Serve(ln)
		daemons[i] = d
		addrs[i] = ln.Addr().String()
		m, err := Join(poolAddr, addrs[i], JoinOptions{
			HeartbeatInterval: 50 * time.Millisecond,
			CapacityBytes:     capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
	}
	return daemons, addrs
}

func TestPoolMembership(t *testing.T) {
	logf := testLogf(t)
	pool, poolAddr := startPool(t, PoolOptions{Logf: logf})
	_, addrs := startWorkers(t, 3, poolAddr, 0, logf)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.WaitMembers(ctx, 3); err != nil {
		t.Fatal(err)
	}
	members := pool.Members()
	if len(members) != 3 {
		t.Fatalf("got %d members, want 3", len(members))
	}
	got := map[string]bool{}
	for _, m := range members {
		got[m.Addr] = true
	}
	for _, a := range addrs {
		if !got[a] {
			t.Fatalf("member %s missing from pool: %v", a, members)
		}
	}
}

func TestPoolMemberLeaveAndTimeout(t *testing.T) {
	logf := testLogf(t)
	pool, poolAddr := startPool(t, PoolOptions{HeartbeatTimeout: 300 * time.Millisecond, Logf: logf})

	// A graceful leave deregisters immediately.
	m, err := Join(poolAddr, "127.0.0.1:11111", JoinOptions{HeartbeatInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	m.Close()
	waitFor(t, 2*time.Second, func() bool { return len(pool.Members()) == 0 }, "member to leave")

	// A silent member (no heartbeats, no leave) is dropped by timeout.
	conn, err := net.Dial("tcp", poolAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := transport.AppendHello(nil, transport.Hello{Purpose: transport.PurposePool})
	if err := transport.WriteFrame(conn, transport.MsgHello, hello, nil); err != nil {
		t.Fatal(err)
	}
	join := transport.AppendPoolJoin(nil, transport.PoolJoin{Addr: "127.0.0.1:22222"})
	if err := transport.WriteFrame(conn, transport.MsgPoolJoin, join, nil); err != nil {
		t.Fatal(err)
	}
	if err := pool.WaitMembers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return len(pool.Members()) == 0 }, "silent member to time out")
}

func TestPoolLeaseAccounting(t *testing.T) {
	logf := testLogf(t)
	pool, poolAddr := startPool(t, PoolOptions{Logf: logf})
	_, _ = startWorkers(t, 3, poolAddr, 1000, logf)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.WaitMembers(ctx, 3); err != nil {
		t.Fatal(err)
	}

	// Capacity 1000 per worker, 600 per lease: one lease per worker fits,
	// a second does not.
	first, err := pool.Lease(ctx, 3, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 {
		t.Fatalf("leased %d workers, want 3", len(first))
	}
	if got := tryLease(pool, 1, 600); got != nil {
		t.Fatalf("over-capacity lease granted: %v", got)
	}
	if pool.idleCount() != 0 {
		t.Fatalf("idle count %d with every worker leased", pool.idleCount())
	}
	// AcquireIdle never takes leased workers.
	if got := pool.AcquireIdle(3, 10); got != nil {
		t.Fatalf("AcquireIdle handed out busy workers: %v", got)
	}
	pool.Release(first[:1], 600)
	if pool.idleCount() != 1 {
		t.Fatalf("idle count %d after one release, want 1", pool.idleCount())
	}
	if got := pool.AcquireIdle(3, 10); len(got) != 1 || got[0] != first[0] {
		t.Fatalf("AcquireIdle = %v, want the released worker %s", got, first[0])
	}
}

// tryLease is Lease without blocking: nil when the pool cannot satisfy
// the request right now.
func tryLease(p *Pool, k int, perWorker int64) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leaseLocked(k, perWorker, false)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSchedulerMultiTenant is the satellite-4 test: N concurrent
// sessions through the queue against one pool, each byte-identical to
// core.MinePMIHP, admitted in FIFO order, leaving zero orphaned daemon
// sessions behind.
func TestSchedulerMultiTenant(t *testing.T) {
	logf := testLogf(t)
	pool, poolAddr := startPool(t, PoolOptions{Logf: logf})
	daemons, _ := startWorkers(t, 8, poolAddr, 0, logf)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pool.WaitMembers(ctx, 8); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerOptions{
		Pool:    pool,
		Cluster: distmine.ClusterConfig{Retry: fastRetry, Logf: logf},
		Logf:    logf,
	})
	defer sched.Close()

	const sessions = 4
	type tenant struct {
		sess *Session
		want []itemset.Counted
		opts mining.Options
	}
	tenants := make([]tenant, sessions)
	for i := 0; i < sessions; i++ {
		// Distinct databases and thresholds per tenant: identical outputs
		// could hide cross-session state bleed.
		cfg := corpus.CorpusB(corpus.Small)
		cfg.Seed = int64(100 + i)
		db := buildDB(t, cfg)
		opts := mining.Options{MinSupCount: 2 + i%2, MaxK: 3}
		sess, err := sched.Submit(SessionRequest{
			DB: db, Opts: opts, Nodes: 2, Label: fmt.Sprintf("tenant-%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tenant{sess: sess, want: pmihpRef(t, db, opts), opts: opts}
	}
	for i, tn := range tenants {
		res, err := tn.sess.Wait()
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
		requireIdentical(t, fmt.Sprintf("tenant-%d", i), tn.want, res)
		if got := tn.sess.AdmitOrder(); got != i+1 {
			t.Fatalf("tenant %d admitted #%d, want FIFO order #%d", i, got, i+1)
		}
	}
	// Zero orphans: every daemon must fully drain its sessions.
	waitFor(t, 5*time.Second, func() bool {
		for _, d := range daemons {
			if d.ActiveSessions() != 0 {
				return false
			}
		}
		return true
	}, "daemon sessions to drain")
	waitFor(t, 5*time.Second, func() bool { return pool.idleCount() == 8 }, "leases to be released")
}

// TestSchedulerFIFOUnderContention: with capacity for only one session
// at a time, admission must stay strictly FIFO — a small session
// submitted later must not slip past a large one at the head.
func TestSchedulerFIFOUnderContention(t *testing.T) {
	logf := testLogf(t)
	pool, poolAddr := startPool(t, PoolOptions{Logf: logf})
	// Per-worker capacity fits exactly one session's per-worker share.
	_, _ = startWorkers(t, 2, poolAddr, 100, logf)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pool.WaitMembers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerOptions{
		Pool:    pool,
		Cluster: distmine.ClusterConfig{Retry: fastRetry, Logf: logf},
		Logf:    logf,
	})
	defer sched.Close()

	db := buildDB(t, corpus.CorpusB(corpus.Small))
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	want := pmihpRef(t, db, opts)
	const sessions = 3
	handles := make([]*Session, sessions)
	for i := 0; i < sessions; i++ {
		// Every session saturates the pool (EstimatedBytes 200 over 2
		// nodes = 100 per worker, the full capacity), so only one runs at
		// a time and the admitter's head-of-line block enforces order.
		sess, err := sched.Submit(SessionRequest{
			DB: db, Opts: opts, Nodes: 2, EstimatedBytes: 200,
			Label: fmt.Sprintf("serial-%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = sess
	}
	for i, sess := range handles {
		res, err := sess.Wait()
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		requireIdentical(t, fmt.Sprintf("serial-%d", i), want, res)
		if got := sess.AdmitOrder(); got != i+1 {
			t.Fatalf("session %d admitted #%d, want #%d", i, got, i+1)
		}
	}
}

// TestSchedulerElasticGrow: a session submitted with GrowTo scales from
// 2 to 4 logical nodes at the StageItemCounts barrier and still matches
// the reference byte for byte.
func TestSchedulerElasticGrow(t *testing.T) {
	logf := testLogf(t)
	pool, poolAddr := startPool(t, PoolOptions{Logf: logf})
	daemons, _ := startWorkers(t, 4, poolAddr, 0, logf)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pool.WaitMembers(ctx, 4); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerOptions{
		Pool:    pool,
		Cluster: distmine.ClusterConfig{Retry: fastRetry, Logf: logf},
		Logf:    logf,
	})
	defer sched.Close()

	cfg := corpus.CorpusSkewed(corpus.Small)
	cfg.Docs = 336
	db := buildDB(t, cfg)
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	want := pmihpRef(t, db, opts)
	sess, err := sched.Submit(SessionRequest{DB: db, Opts: opts, Nodes: 2, GrowTo: 4, Label: "grower"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "grower", want, res)
	if res.Metrics.ElasticResizes != 1 {
		t.Fatalf("ElasticResizes = %d, want 1", res.Metrics.ElasticResizes)
	}
	if len(res.Nodes) != 4 {
		t.Fatalf("finished with %d nodes, want 4 after grow", len(res.Nodes))
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, d := range daemons {
			if d.ActiveSessions() != 0 {
				return false
			}
		}
		return true
	}, "daemon sessions to drain")
	waitFor(t, 5*time.Second, func() bool { return pool.idleCount() == 4 }, "grown leases to be released")
}

// idleCount reports members with no active lease.
func (p *Pool) idleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, m := range p.members {
		if m.sessions == 0 {
			n++
		}
	}
	return n
}
