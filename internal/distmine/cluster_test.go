package distmine

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/text"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

// nodeBin is the pmihp-node binary built once by TestMain for the
// multi-process tests.
var (
	nodeBin  string
	buildErr error
)

// TestMain builds pmihp-node for the multi-process tests and, after the
// suite, fails the run if goroutines outlive it.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	dir, err := os.MkdirTemp("", "pmihp-node-bin")
	if err != nil {
		buildErr = err
	} else {
		bin := filepath.Join(dir, "pmihp-node")
		out, err := exec.Command("go", "build", "-o", bin, "pmihp/cmd/pmihp-node").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build pmihp/cmd/pmihp-node: %v\n%s", err, out)
		} else {
			nodeBin = bin
		}
	}
	code := m.Run()
	if dir != "" {
		os.RemoveAll(dir)
	}
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

func buildDB(t testing.TB, cfg corpus.Config) *txdb.DB {
	t.Helper()
	docs, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := text.ToDB(docs, nil)
	return db
}

// requireIdentical asserts the distmine frequent list is byte-identical
// to the in-process PMIHP reference: same itemsets, same counts, same
// order.
func requireIdentical(t *testing.T, ref []mining.Result, got *Result) {
	t.Helper()
	want := ref[0].Frequent
	if len(got.Frequent) != len(want) {
		t.Fatalf("frequent list length %d, want %d", len(got.Frequent), len(want))
	}
	for i := range want {
		if !want[i].Set.Equal(got.Frequent[i].Set) || want[i].Count != got.Frequent[i].Count {
			t.Fatalf("entry %d: got %v/%d, want %v/%d",
				i, got.Frequent[i].Set, got.Frequent[i].Count, want[i].Set, want[i].Count)
		}
	}
}

func pmihpRef(t *testing.T, db *txdb.DB, nodes int, opts mining.Options) []mining.Result {
	t.Helper()
	r, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: nodes}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return []mining.Result{*r.Result}
}

var fastRetry = transport.RetryPolicy{Attempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

// startDaemons runs n node daemons in-process on loopback listeners and
// returns their addresses.
func startDaemons(t *testing.T, n int, opt DaemonOptions) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		_, addrs[i] = startDaemon(t, opt)
	}
	return addrs
}

// startDaemon runs one node daemon in-process on a loopback listener.
func startDaemon(t *testing.T, opt DaemonOptions) (*Daemon, string) {
	t.Helper()
	if opt.Retry.Attempts == 0 {
		opt.Retry = fastRetry
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	d := NewDaemon(opt)
	go d.Serve(ln)
	return d, ln.Addr().String()
}

func TestClusterMatchesPMIHP(t *testing.T) {
	for _, n := range []int{2, 3, 8} { // 3 exercises the star fallback
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			addrs := startDaemons(t, n, DaemonOptions{})
			db := buildDB(t, corpus.CorpusB(corpus.Small))
			opts := mining.Options{MinSupCount: 2, MaxK: 3}
			ref := pmihpRef(t, db, n, opts)
			got, err := MineCluster(db, ClusterConfig{Addrs: addrs, Retry: fastRetry}, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, ref, got)
			if got.Metrics.WireMessagesSent == 0 || got.Metrics.WireBytesSent == 0 {
				t.Fatalf("wire traffic not accounted: %+v", got.Metrics)
			}
		})
	}
}

// TestMultiProcessCluster is the headline integration test: real
// pmihp-node worker processes on loopback, driven end to end by the
// coordinator, must produce frequent itemsets byte-identical to the
// in-process PMIHP miner.
func TestMultiProcessCluster(t *testing.T) {
	if nodeBin == "" {
		t.Fatalf("pmihp-node binary unavailable: %v", buildErr)
	}
	for _, n := range []int{2, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			addrs, stop, err := SpawnNodes(nodeBin, n, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			db := buildDB(t, corpus.CorpusB(corpus.Small))
			opts := mining.Options{MinSupCount: 2, MaxK: 3}
			ref := pmihpRef(t, db, n, opts)
			got, err := MineCluster(db, ClusterConfig{Addrs: addrs, Retry: fastRetry}, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, ref, got)
		})
	}
}

// flakyProxy fronts one node's address and kills the first `kills`
// peer (cube/poll) connections right after their Hello, leaving the
// coordinator's control connection alone. It decodes each connection's
// Hello frame to tell the two apart.
type flakyProxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	kills  int
	killed int
}

func startFlakyProxy(t *testing.T, target string, kills int) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &flakyProxy{ln: ln, target: target, kills: kills}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go p.handle(c)
		}
	}()
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) handle(c net.Conn) {
	defer c.Close()
	var hdr [6]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > 1024 {
		return
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c, payload); err != nil {
		return
	}
	h, err := transport.DecodeHello(payload)
	if err != nil {
		return
	}
	if h.Purpose != transport.PurposeControl {
		p.mu.Lock()
		kill := p.killed < p.kills
		if kill {
			p.killed++
		}
		p.mu.Unlock()
		if kill {
			return // drop the connection mid-handshake
		}
	}
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer up.Close()
	up.Write(hdr[:])
	up.Write(payload)
	go func() {
		io.Copy(up, c)
		if tc, ok := up.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	io.Copy(c, up)
}

// TestClusterRecoversFromKilledConns kills one node's first few peer
// connections mid-exchange; retry/backoff must recover and the result
// must still be byte-identical.
func TestClusterRecoversFromKilledConns(t *testing.T) {
	addrs := startDaemons(t, 2, DaemonOptions{})
	proxy := startFlakyProxy(t, addrs[1], 2)
	addrs[1] = proxy.addr()

	db := buildDB(t, corpus.CorpusB(corpus.Small))
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	ref := pmihpRef(t, db, 2, opts)
	got, err := MineCluster(db, ClusterConfig{Addrs: addrs, Retry: fastRetry}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, got)
	if got.Metrics.WireRetries == 0 {
		t.Fatalf("expected retries after killed connections, stats: %+v", got.Metrics)
	}
	proxy.mu.Lock()
	killed := proxy.killed
	proxy.mu.Unlock()
	if killed != 2 {
		t.Fatalf("proxy killed %d connections, want 2", killed)
	}
}

// TestClusterPeerRetriesExhausted kills every peer connection to one
// node; the session must fail with a clean, attributed error rather
// than hang or panic.
func TestClusterPeerRetriesExhausted(t *testing.T) {
	opt := DaemonOptions{
		Retry:       transport.RetryPolicy{Attempts: 2, BaseDelay: 1 * time.Millisecond, MaxDelay: 5 * time.Millisecond},
		WaitTimeout: 2 * time.Second,
	}
	addrs := startDaemons(t, 2, opt)
	proxy := startFlakyProxy(t, addrs[1], 1<<30)
	addrs[1] = proxy.addr()

	db := buildDB(t, corpus.CorpusB(corpus.Small))
	_, err := MineCluster(db, ClusterConfig{
		Addrs:       addrs,
		Retry:       fastRetry,
		MineTimeout: 30 * time.Second,
	}, mining.Options{MinSupCount: 2, MaxK: 3})
	if err == nil {
		t.Fatal("expected failure with all peer connections killed")
	}
	if !strings.Contains(err.Error(), "all-gather") || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("error not attributed to the failing exchange: %v", err)
	}
}

// deadAddr returns a loopback address nobody is listening on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestClusterReassignsToSurvivors: with failure-policy reassign, a dead
// daemon drops out of the roster, the database is re-split across the
// survivors — one logical node per live daemon — and the result stays
// byte-identical, with the failover accounted in the metrics.
func TestClusterReassignsToSurvivors(t *testing.T) {
	addrs := startDaemons(t, 3, DaemonOptions{})
	addrs[2] = deadAddr(t) // node 2's daemon is dead from the start

	db := buildDB(t, corpus.CorpusB(corpus.Small))
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	ref := pmihpRef(t, db, 3, opts)
	got, err := MineCluster(db, ClusterConfig{
		Addrs:         addrs,
		Retry:         transport.RetryPolicy{Attempts: 2, BaseDelay: 1 * time.Millisecond, MaxDelay: 5 * time.Millisecond},
		FailurePolicy: FailurePolicyReassign,
		Logf:          t.Logf,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, got)
	if got.Metrics.Failovers != 1 {
		t.Fatalf("failovers=%d, want 1", got.Metrics.Failovers)
	}
	if len(got.Nodes) != 2 {
		t.Fatalf("finished with %d nodes, want one per live daemon (2)", len(got.Nodes))
	}
	if got.Metrics.RecoverySeconds <= 0 {
		t.Fatalf("recovery time not accounted: %+v", got.Metrics)
	}
}

// TestClusterReassignsToRespawned: with a Respawn hook, a freshly
// spawned replacement takes the dead daemon's roster entry instead of
// the roster shrinking.
func TestClusterReassignsToRespawned(t *testing.T) {
	addrs := startDaemons(t, 2, DaemonOptions{})
	addrs[1] = deadAddr(t)

	respawns := 0
	respawn := func() (string, error) {
		respawns++
		return startDaemons(t, 1, DaemonOptions{})[0], nil
	}
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	ref := pmihpRef(t, db, 2, opts)
	got, err := MineCluster(db, ClusterConfig{
		Addrs:         addrs,
		Retry:         transport.RetryPolicy{Attempts: 2, BaseDelay: 1 * time.Millisecond, MaxDelay: 5 * time.Millisecond},
		FailurePolicy: FailurePolicyReassign,
		Respawn:       respawn,
		Logf:          t.Logf,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, got)
	if respawns != 1 {
		t.Fatalf("respawn called %d times, want 1", respawns)
	}
	if got.Metrics.Failovers != 1 {
		t.Fatalf("failovers=%d, want 1", got.Metrics.Failovers)
	}
	if len(got.Nodes) != 2 {
		t.Fatalf("finished with %d nodes, want one per live daemon (2)", len(got.Nodes))
	}
}

// TestClusterAllDaemonsDead: recovery runs out of daemons and the
// session fails with an attributed error instead of looping.
func TestClusterAllDaemonsDead(t *testing.T) {
	addrs := []string{deadAddr(t), deadAddr(t)}
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	_, err := MineCluster(db, ClusterConfig{
		Addrs:         addrs,
		Retry:         transport.RetryPolicy{Attempts: 2, BaseDelay: 1 * time.Millisecond, MaxDelay: 5 * time.Millisecond},
		FailurePolicy: FailurePolicyReassign,
	}, mining.Options{MinSupCount: 2})
	if err == nil {
		t.Fatal("expected failure with every daemon dead")
	}
	if !strings.Contains(err.Error(), "control dial") {
		t.Fatalf("error not attributed: %v", err)
	}
}

// silentDaemon accepts connections and reads frames but never writes —
// a worker that is alive at the TCP level yet stuck. The coordinator
// must declare it dead by heartbeat timeout, not hang.
func silentDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	return ln.Addr().String()
}

// TestClusterHeartbeatTimeout: a stuck (silent) worker is detected by
// the missing heartbeats and attributed in the error under the abort
// policy.
func TestClusterHeartbeatTimeout(t *testing.T) {
	addrs := startDaemons(t, 2, DaemonOptions{})
	addrs[1] = silentDaemon(t)

	db := buildDB(t, corpus.CorpusB(corpus.Small))
	_, err := MineCluster(db, ClusterConfig{
		Addrs:             addrs,
		Retry:             fastRetry,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		MineTimeout:       30 * time.Second,
	}, mining.Options{MinSupCount: 2, MaxK: 3})
	if err == nil {
		t.Fatal("expected heartbeat-timeout failure against a silent worker")
	}
	if !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "no heartbeat") {
		t.Fatalf("error not attributed to the silent worker: %v", err)
	}
}

// TestClusterDeadNodesFail points the coordinator at addresses nobody
// is listening on; it must return a clean attributed dial error after
// exhausting retries.
func TestClusterDeadNodesFail(t *testing.T) {
	dead := make([]string, 2)
	for i := range dead {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead[i] = ln.Addr().String()
		ln.Close()
	}
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	_, err := MineCluster(db, ClusterConfig{
		Addrs: dead,
		Retry: transport.RetryPolicy{Attempts: 2, BaseDelay: 1 * time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}, mining.Options{MinSupCount: 2})
	if err == nil {
		t.Fatal("expected dial failure against dead addresses")
	}
	if !strings.Contains(err.Error(), "node 0") || !strings.Contains(err.Error(), "control dial") {
		t.Fatalf("error not attributed: %v", err)
	}
}
