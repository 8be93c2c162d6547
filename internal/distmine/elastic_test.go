package distmine

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

// elasticCorpus is a database big enough that the window between the
// StageItemCounts barrier and session completion spans most of the run —
// the resize request raised at the barrier reliably lands mid-run.
func elasticCorpus(t *testing.T) *txdb.DB {
	cfg := corpus.CorpusSkewed(corpus.Small)
	cfg.Docs = 336
	return buildDB(t, cfg)
}

// resizeAtBarrier wires an ElasticControl plus an OnCheckpointStage hook
// that requests a resize onto addrs the first time the session
// checkpoints at (or past) StageItemCounts.
func resizeAtBarrier(t *testing.T, addrs []string) (*ElasticControl, func(stage uint8)) {
	t.Helper()
	ctrl := NewElasticControl()
	var once sync.Once
	return ctrl, func(stage uint8) {
		if stage < transport.StageItemCounts {
			return
		}
		once.Do(func() {
			if err := ctrl.Resize(addrs); err != nil {
				t.Errorf("resize: %v", err)
			}
		})
	}
}

// TestClusterElasticResize scales a running session's logical node
// count mid-run — up (2 -> 4) and down (4 -> 2) — at the first
// StageItemCounts barrier. The frequent list must stay byte-identical
// to core.MinePMIHP and the resize must be accounted.
func TestClusterElasticResize(t *testing.T) {
	cases := []struct {
		name       string
		start, end int
	}{
		{"grow-2-to-4", 2, 4},
		{"shrink-4-to-2", 4, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			daemons := startDaemons(t, max(tc.start, tc.end), DaemonOptions{})
			db := elasticCorpus(t)
			opts := mining.Options{MinSupCount: 2, MaxK: 3}
			ref := pmihpRef(t, db, tc.start, opts)

			ctrl, onStage := resizeAtBarrier(t, daemons[:tc.end])
			got, err := MineCluster(db, ClusterConfig{
				Addrs:             daemons[:tc.start],
				Retry:             fastRetry,
				Elastic:           ctrl,
				OnCheckpointStage: onStage,
				Logf:              t.Logf,
			}, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, ref, got)
			if got.Metrics.ElasticResizes != 1 {
				t.Fatalf("ElasticResizes = %d, want 1", got.Metrics.ElasticResizes)
			}
			if len(got.Nodes) != tc.end {
				t.Fatalf("finished with %d nodes, want %d after resize", len(got.Nodes), tc.end)
			}
			if got.Metrics.Failovers != 0 || got.Metrics.ReassignedPartitions != 0 {
				t.Fatalf("resize charged as failover: %+v", got.Metrics)
			}
		})
	}
}

// TestClusterResizeBeforeStart: a resize requested before MineCluster
// begins is applied at the first recovery barrier, before any attempt —
// the session simply runs on the new roster.
func TestClusterResizeBeforeStart(t *testing.T) {
	daemons := startDaemons(t, 3, DaemonOptions{})
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	ref := pmihpRef(t, db, 3, opts)

	ctrl := NewElasticControl()
	if err := ctrl.Resize(daemons); err != nil {
		t.Fatal(err)
	}
	got, err := MineCluster(db, ClusterConfig{
		Addrs:   daemons[:2],
		Retry:   fastRetry,
		Elastic: ctrl,
		Logf:    t.Logf,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, got)
	if got.Metrics.ElasticResizes != 1 {
		t.Fatalf("ElasticResizes = %d, want 1", got.Metrics.ElasticResizes)
	}
	if len(got.Nodes) != 3 {
		t.Fatalf("finished with %d nodes, want 3", len(got.Nodes))
	}
}

// TestStragglerGrowsOntoIdleWorkers: the day-skewed corpus under
// equal-count partitioning makes the heavy node's passes crawl; with
// AcquireWorkers offering idle pool daemons, the armed detector must
// grow the roster and re-split (an elastic resize) instead of migrating
// the slow partition onto already-busy survivors — and the result must
// stay byte-identical.
func TestStragglerGrowsOntoIdleWorkers(t *testing.T) {
	daemons := startDaemons(t, 4, DaemonOptions{})
	idle := startDaemons(t, 2, DaemonOptions{})
	db := elasticCorpus(t)
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	ref := pmihpRef(t, db, 4, opts)

	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, format)
		mu.Unlock()
		t.Logf(format, args...)
	}
	acquired := 0
	got, err := MineCluster(db, ClusterConfig{
		Addrs:              daemons,
		Retry:              fastRetry,
		HeartbeatInterval:  5 * time.Millisecond,
		HeartbeatTimeout:   2 * time.Second,
		StragglerLagPasses: 3,
		AcquireWorkers: func(max int) []string {
			mu.Lock()
			defer mu.Unlock()
			if acquired > 0 {
				return nil // one grow per test; later fires fall back
			}
			n := min(max, len(idle))
			acquired = n
			return idle[:n]
		},
		Logf: logf,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, got)
	if got.Metrics.ElasticResizes < 1 {
		t.Fatalf("ElasticResizes = %d, want >= 1 (straggler should grow, not migrate)", got.Metrics.ElasticResizes)
	}
	if got.Metrics.Failovers != 0 {
		t.Fatalf("straggler growth charged as failover: %+v", got.Metrics)
	}
	mu.Lock()
	defer mu.Unlock()
	if acquired == 0 {
		t.Fatal("AcquireWorkers never returned workers")
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "growing onto") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no straggler-growth log line; logs: %v", logs)
	}
}

// rawControlConn speaks the coordinator's side of the control plane by
// hand: Hello + Init out, then frames in until a terminal message.
type rawControlConn struct {
	t    *testing.T
	conn net.Conn
}

func dialControl(t *testing.T, addr string, clusterID uint64, node int32) *rawControlConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello := transport.AppendHello(nil, transport.Hello{
		ClusterID: clusterID, From: -1, To: node, Purpose: transport.PurposeControl,
	})
	if err := transport.WriteFrame(conn, transport.MsgHello, hello, nil); err != nil {
		t.Fatal(err)
	}
	return &rawControlConn{t: t, conn: conn}
}

func (c *rawControlConn) sendInit(init transport.Init) {
	c.t.Helper()
	if err := transport.WriteFrame(c.conn, transport.MsgInit, transport.AppendInit(nil, init), nil); err != nil {
		c.t.Fatal(err)
	}
}

// awaitTerminal reads frames (skipping heartbeats and progress) until a
// NodeDone or ErrorMsg arrives.
func (c *rawControlConn) awaitTerminal(timeout time.Duration) (uint8, []byte) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		c.conn.SetReadDeadline(deadline)
		mt, payload, err := transport.ReadFrame(c.conn, nil)
		if err != nil {
			c.t.Fatalf("reading control frame: %v", err)
		}
		switch mt {
		case transport.MsgHeartbeat, transport.MsgProgress:
			continue
		default:
			return mt, payload
		}
	}
}

// TestDaemonReInitSupersedesDrainingSession is the reconnect regression
// test: a daemon hosting a wedged logical node (its peer is dead, so
// the first attempt blocks after its exchange fails, holding the
// session registration until a Shutdown that will never come) must let
// a re-Init of the same (cluster, node) supersede the draining session
// instead of wedging reassign-to-same-daemon recovery.
func TestDaemonReInitSupersedesDrainingSession(t *testing.T) {
	addr := startDaemons(t, 1, DaemonOptions{
		Retry:       transport.RetryPolicy{Attempts: 2, BaseDelay: 1 * time.Millisecond, MaxDelay: 5 * time.Millisecond},
		WaitTimeout: 10 * time.Second,
		Logf:        t.Logf,
	})[0]
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	p := core.NewNodeParams(db, mining.Options{MinSupCount: 2, MaxK: 3})
	part := encodeDB(t, db)
	const clusterID = 0xdecafbad

	baseInit := transport.Init{
		ClusterID:       clusterID,
		NodeID:          0,
		TotalDocs:       int32(p.TotalDocs),
		NumItems:        int32(p.NumItems),
		GlobalMin:       int32(p.Opts.MinSupCount),
		THTEntries:      int32(p.Opts.THTEntries),
		PartitionSize:   int32(p.Opts.PartitionSize),
		MaxK:            int32(p.Opts.MaxK),
		Workers:         1,
		DenseThreshold:  p.Opts.DenseThreshold,
		HeartbeatMillis: 20,
		DB:              part,
	}

	// First attempt: a 2-node session whose peer is dead. The node's
	// exchange retries, fails, and the session then blocks waiting for a
	// Shutdown — registered, draining, wedged.
	first := dialControl(t, addr, clusterID, 0)
	wedged := baseInit
	wedged.Nodes = 2
	wedged.PeerAddrs = []string{addr, deadAddr(t)}
	first.sendInit(wedged)
	if mt, payload := first.awaitTerminal(10 * time.Second); mt != transport.MsgError {
		t.Fatalf("wedged attempt: got message type %d, want MsgError", mt)
	} else if em, err := transport.DecodeError(payload); err != nil || em.Text == "" {
		t.Fatalf("wedged attempt: bad error frame: %v %q", err, em.Text)
	}
	// The first control conn stays open: the daemon keeps the failed
	// session registered until Shutdown.

	// Second attempt, same (cluster, node): a 1-node session that can
	// complete alone. It must supersede the draining registration and
	// finish with a NodeDone.
	second := dialControl(t, addr, clusterID, 0)
	solo := baseInit
	solo.Nodes = 1
	solo.PeerAddrs = []string{addr}
	second.sendInit(solo)
	mt, payload := second.awaitTerminal(10 * time.Second)
	if mt != transport.MsgNodeDone {
		if mt == transport.MsgError {
			em, _ := transport.DecodeError(payload)
			t.Fatalf("re-init failed instead of superseding: %s", em.Text)
		}
		t.Fatalf("re-init: got message type %d, want MsgNodeDone", mt)
	}
	done, err := transport.DecodeNodeDone(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(done.Found) == 0 {
		t.Fatal("superseding session mined nothing")
	}
	transport.WriteFrame(second.conn, transport.MsgShutdown, nil, nil)
}

// TestLeastLoadedAliveMultiDeath pins the placement audit: the load map
// counts every hostOf entry — including partitions still attributed to
// dead hosts mid-recovery — but selection skips dead and excepted
// entries, so live placements only ever weigh live load.
func TestLeastLoadedAliveMultiDeath(t *testing.T) {
	cases := []struct {
		name   string
		alive  []bool
		hostOf []int
		except int
		want   int
	}{
		{
			// All alive, equal load: lowest index wins.
			name:  "uniform",
			alive: []bool{true, true, true}, hostOf: []int{0, 1, 2},
			except: -1, want: 0,
		},
		{
			// Host 0 dead with two orphans still attributed to it: its
			// phantom load must not steer placement, and it must never be
			// selected. Hosts 1 and 2 each hold one node; lowest index wins.
			name:  "dead-host-load-ignored",
			alive: []bool{false, true, true}, hostOf: []int{0, 0, 1, 2},
			except: -1, want: 1,
		},
		{
			// Two of four dead; host 3 carries an earlier reassignment so
			// host 1 (lighter) must win even though 3 has a lower... it
			// does not — 1 < 3 in load: 1 holds one node, 3 holds two.
			name:  "multi-death-prefers-lighter-survivor",
			alive: []bool{false, true, false, true}, hostOf: []int{0, 1, 2, 3, 3},
			except: -1, want: 1,
		},
		{
			// The straggler's own host is excepted even though it is alive
			// and lightest.
			name:  "except-straggler",
			alive: []bool{true, true, true}, hostOf: []int{0, 1, 1, 2, 2},
			except: 0, want: 1,
		},
		{
			// Everyone dead or excepted: no candidate.
			name:  "no-candidates",
			alive: []bool{false, true}, hostOf: []int{0, 1},
			except: 1, want: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			roster := make([]string, len(tc.alive))
			for i := range roster {
				roster[i] = "host"
			}
			s := &session{roster: roster, alive: tc.alive, hostOf: tc.hostOf}
			if got := s.leastLoadedAlive(tc.except); got != tc.want {
				t.Fatalf("leastLoadedAlive(%d) = %d, want %d", tc.except, got, tc.want)
			}
		})
	}
	// Sequential multi-death recovery: orphans are placed one at a time
	// and each placement must see the previous one's load.
	s := &session{
		roster: []string{"a", "b", "c", "d"},
		alive:  []bool{false, false, true, true},
		hostOf: []int{0, 1, 2, 3},
	}
	first := s.leastLoadedAlive(-1)
	if first != 2 {
		t.Fatalf("first orphan placed on %d, want 2", first)
	}
	s.hostOf[0] = first
	second := s.leastLoadedAlive(-1)
	if second != 3 {
		t.Fatalf("second orphan placed on %d, want 3 (host 2 now carries two)", second)
	}
}

// TestCheckpointRetiredOnSuccess: a cleanly completed session must not
// leave its session-<id>.ckpt behind in CheckpointDir.
func TestCheckpointRetiredOnSuccess(t *testing.T) {
	dir := t.TempDir()
	addrs := startDaemons(t, 2, DaemonOptions{})
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	ref := pmihpRef(t, db, 2, opts)
	got, err := MineCluster(db, ClusterConfig{
		Addrs:         addrs,
		Retry:         fastRetry,
		CheckpointDir: dir,
		Logf:          t.Logf,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, got)
	left, err := filepath.Glob(filepath.Join(dir, "session-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("checkpoint files left after clean completion: %v", left)
	}
}

// TestRetireStaleCheckpoint: a brand-new session whose 64-bit random id
// collides with an unretired predecessor's file must remove that file
// (with attribution) before anything can resume from it.
func TestRetireStaleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const id = uint64(0x1234abcd)
	path := checkpointPath(dir, id)
	stale := transport.Checkpoint{ClusterID: id, Nodes: 2, Stage: transport.StageItemCounts, GlobalCounts: []uint32{1, 2}}
	if err := transport.WriteCheckpointFile(path, stale); err != nil {
		t.Fatal(err)
	}
	var logs []string
	retireStaleCheckpoint(dir, id, func(format string, args ...any) {
		logs = append(logs, format)
	})
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint not removed: %v", err)
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "id collision") {
			found = true
		}
	}
	if !found {
		t.Fatalf("collision not attributed in logs: %v", logs)
	}
	// A different id must leave the directory alone.
	if err := transport.WriteCheckpointFile(path, stale); err != nil {
		t.Fatal(err)
	}
	retireStaleCheckpoint(dir, id+1, t.Logf)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("unrelated checkpoint removed: %v", err)
	}
}

// encodeDB serializes a database the way the coordinator ships
// partitions.
func encodeDB(t *testing.T, db *txdb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
