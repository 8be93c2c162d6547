package distmine

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
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
			if got.Metrics.Failovers != 0 {
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

// TestResizeLabelsWorkPartitions: a re-split cuts by estimated work
// whatever partitioner the session started under, and the Init must say
// so — the daemons log the partitioner that actually cut the partition
// they were shipped.
func TestResizeLabelsWorkPartitions(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	daemons := startDaemons(t, 3, DaemonOptions{Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	opts := mining.Options{MinSupCount: 2, MaxK: 3} // count partitioning
	ctrl := NewElasticControl()
	if err := ctrl.Resize(daemons); err != nil {
		t.Fatal(err)
	}
	got, err := MineCluster(db, ClusterConfig{Addrs: daemons[:2], Retry: fastRetry, Elastic: ctrl}, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, pmihpRef(t, db, 3, opts), got)
	mu.Lock()
	defer mu.Unlock()
	inits := 0
	for _, l := range lines {
		if !strings.Contains(l, " partitions (") {
			continue
		}
		inits++
		if !strings.Contains(l, "work partitions") {
			t.Errorf("re-split node logged %q, want work partitions", l)
		}
	}
	if inits != 3 {
		t.Fatalf("%d node inits logged, want 3:\n%s", inits, strings.Join(lines, "\n"))
	}
}

// TestStragglerGrowsOntoIdleWorkers: the day-skewed corpus under
// equal-count partitioning makes the heavy node's passes crawl; with
// AcquireWorkers offering idle pool daemons, the armed detector must
// grow the roster and re-split (an elastic resize) instead of dropping
// the slow daemon — and the result must stay byte-identical.
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
				return nil // one grow per test; later fires drop the straggler
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
		t.Fatalf("ElasticResizes = %d, want >= 1 (straggler should grow, not shrink)", got.Metrics.ElasticResizes)
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
// instead of wedging the coordinator that re-Inits it.
func TestDaemonReInitSupersedesDrainingSession(t *testing.T) {
	d, addr := startDaemon(t, DaemonOptions{
		Retry:       transport.RetryPolicy{Attempts: 2, BaseDelay: 1 * time.Millisecond, MaxDelay: 5 * time.Millisecond},
		WaitTimeout: 10 * time.Second,
		Logf:        t.Logf,
	})
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
	// The daemon logs through t.Logf until each session has drained;
	// returning earlier would let it log after the test completed.
	deadline := time.Now().Add(10 * time.Second)
	for d.ActiveSessions() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still registered after shutdown", d.ActiveSessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNextRoster pins the one recovery path's roster arithmetic: the
// cause of every aborted attempt maps to the roster the next attempt
// re-splits the database across, one logical node per entry.
func TestNextRoster(t *testing.T) {
	dial := errors.New("distmine: control dial: connection refused")
	respawned := func() (string, error) { return "r", nil }
	noRespawn := func() (string, error) { return "", errors.New("no capacity") }
	cases := []struct {
		name      string
		roster    []string
		addrs     []string // ClusterConfig.Addrs; nil: the roster
		policy    FailurePolicy
		respawn   func() (string, error)
		acquire   func(max int) []string
		failovers int // already spent this session
		cause     error
		want      []string
		wantErr   string // non-empty: the session ends with this error
		// Counters after the call.
		wantFailovers, wantRebalances, wantResizes int
	}{
		{
			name:   "several-deaths-dropped",
			roster: []string{"a", "b", "c", "d"}, policy: FailurePolicyReassign,
			cause: &deathError{[]int{1, 3}, dial},
			want:  []string{"a", "c"}, wantFailovers: 2,
		},
		{
			name:   "dead-daemon-takes-all-its-entries",
			roster: []string{"a", "b", "a", "c"}, policy: FailurePolicyReassign,
			cause: &deathError{[]int{0}, dial},
			want:  []string{"b", "c"}, wantFailovers: 1,
		},
		{
			name:   "respawn-takes-dead-slot",
			roster: []string{"a", "b", "c"}, policy: FailurePolicyReassign, respawn: respawned,
			cause: &deathError{[]int{1}, dial},
			want:  []string{"a", "r", "c"}, wantFailovers: 1,
		},
		{
			name:   "failed-respawn-drops",
			roster: []string{"a", "b", "c"}, policy: FailurePolicyReassign, respawn: noRespawn,
			cause: &deathError{[]int{1}, dial},
			want:  []string{"a", "c"}, wantFailovers: 1,
		},
		{
			name:   "straggler-dropped",
			roster: []string{"a", "b", "c"},
			cause:  &stragglerError{node: 1, addr: "b", lag: 3},
			want:   []string{"a", "c"}, wantRebalances: 1,
		},
		{
			name:    "straggler-without-idle-workers-dropped",
			roster:  []string{"a", "b", "c"},
			acquire: func(int) []string { return nil },
			cause:   &stragglerError{node: 2, addr: "c", lag: 3},
			want:    []string{"a", "b"}, wantRebalances: 1,
		},
		{
			name:   "straggler-grows",
			roster: []string{"a", "b", "c"},
			acquire: func(max int) []string {
				if max != 3 {
					t.Errorf("AcquireWorkers(%d), want one per roster entry", max)
				}
				return []string{"x", "y"}
			},
			cause: &stragglerError{node: 1, addr: "b", lag: 3},
			want:  []string{"a", "b", "c", "x", "y"}, wantResizes: 1,
		},
		{
			name:   "owner-resize",
			roster: []string{"a", "b"},
			cause:  &resizeError{roster: []string{"c", "c", "d"}},
			want:   []string{"c", "c", "d"}, wantResizes: 1,
		},
		{
			name:   "empty-roster",
			roster: []string{"a"}, addrs: []string{"a", "b"}, policy: FailurePolicyReassign,
			cause:   &deathError{[]int{0}, dial},
			wantErr: "no daemons left", wantFailovers: 1,
		},
		{
			name:   "failover-budget-spent",
			roster: []string{"a", "b"}, policy: FailurePolicyReassign, failovers: 1,
			cause:   &deathError{[]int{0}, dial},
			wantErr: "giving up after 2 failovers", wantFailovers: 2,
		},
		{
			name:   "death-under-abort-policy",
			roster: []string{"a", "b"}, policy: FailurePolicyAbort,
			cause:   &deathError{[]int{0}, dial},
			wantErr: dial.Error(),
		},
		{
			name:    "node-error",
			roster:  []string{"a", "b"},
			cause:   errors.New("distmine: node 1 failed: bad partition"),
			wantErr: "bad partition",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs := tc.addrs
			if addrs == nil {
				addrs = tc.roster
			}
			s := &session{
				cfg: ClusterConfig{
					Addrs: addrs, FailurePolicy: tc.policy, Respawn: tc.respawn,
					AcquireWorkers: tc.acquire, Logf: t.Logf,
				},
				roster:         tc.roster,
				failovers:      tc.failovers,
				rebalancedHost: make(map[string]bool),
			}
			orig := slices.Clone(tc.roster)
			got, err := s.nextRoster(tc.cause)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !errors.Is(err, tc.cause) {
					t.Fatalf("error %v, want one naming %q and wrapping the cause", err, tc.wantErr)
				}
			} else if err != nil || !slices.Equal(got, tc.want) {
				t.Fatalf("next roster %v (err %v), want %v", got, err, tc.want)
			}
			if s.failovers != tc.wantFailovers || s.rebalances != tc.wantRebalances || s.resizes != tc.wantResizes {
				t.Fatalf("failovers/rebalances/resizes = %d/%d/%d, want %d/%d/%d",
					s.failovers, s.rebalances, s.resizes, tc.wantFailovers, tc.wantRebalances, tc.wantResizes)
			}
			if !slices.Equal(s.roster, orig) {
				t.Fatalf("nextRoster modified the current roster: %v, was %v", s.roster, orig)
			}
			// At most one fire per address: the watchdog skips an address
			// the session already re-split away from.
			var st *stragglerError
			fired := errors.As(tc.cause, &st)
			for _, a := range tc.roster {
				if want := fired && a == st.addr; s.rebalancedHost[a] != want {
					t.Fatalf("address %s barred from firing: %v, want %v", a, s.rebalancedHost[a], want)
				}
			}
		})
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
