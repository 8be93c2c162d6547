package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"pmihp/internal/cluster"
	"pmihp/internal/itemset"
)

// startTCPCluster brings up n TCP exchange endpoints on loopback
// listeners, each with its own Serve loop, torn down at test cleanup.
func startTCPCluster(t *testing.T, n int) []*TCPExchange {
	t.Helper()
	xs, stop := newTCPCluster(t, n, 10*time.Second)
	t.Cleanup(stop)
	return xs
}

// newTCPCluster is startTCPCluster with the collectives' wait bound given
// and the teardown returned: stop closes every endpoint and listener and
// returns once every Serve loop has.
func newTCPCluster(t *testing.T, n int, wait time.Duration) (xs []*TCPExchange, stop func()) {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	xs = make([]*TCPExchange, n)
	var served sync.WaitGroup
	for i := range xs {
		x, err := NewTCP(TCPOptions{
			ClusterID: 42, NodeID: i, Nodes: n, Peers: addrs,
			Retry:       RetryPolicy{Attempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
			IOTimeout:   5 * time.Second,
			WaitTimeout: wait,
		})
		if err != nil {
			t.Fatalf("NewTCP(%d): %v", i, err)
		}
		xs[i] = x
		served.Add(1)
		go func(ln net.Listener) {
			defer served.Done()
			x.Serve(ln)
		}(listeners[i])
	}
	return xs, func() {
		for i := range xs {
			xs[i].Close()
			listeners[i].Close()
		}
		served.Wait()
	}
}

// runAllGather drives the collective on every node concurrently and
// checks each one sees all n blobs.
func runAllGather(t *testing.T, xs []*TCPExchange, phase Phase) {
	t.Helper()
	n := len(xs)
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([][][]byte, n)
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = xs[i].AllGather(phase, []byte(fmt.Sprintf("blob-from-%d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: AllGather(%s): %v", i, phase, err)
		}
		for j := 0; j < n; j++ {
			want := fmt.Sprintf("blob-from-%d", j)
			if string(outs[i][j]) != want {
				t.Fatalf("node %d slot %d = %q, want %q", i, j, outs[i][j], want)
			}
		}
	}
}

// TestTCPWaitTimersReleased: every wait of a cube step stops its
// WaitTimeout timer once the wait ends. Under the module's go 1.22 timer
// semantics a timer left running stays live until it fires, so with a
// 1 h timeout each step's waits would pin their timers for the hour.
func TestTCPWaitTimersReleased(t *testing.T) {
	const sessions, phases = 20, 40
	session := func() {
		xs, stop := newTCPCluster(t, 4, time.Hour)
		defer stop()
		for p := 1; p <= phases; p++ {
			runAllGather(t, xs, Phase(p))
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	session() // warm up connection and allocator state
	before := liveHeap()
	for i := 0; i < sessions; i++ {
		session()
	}
	// Each four-node all-gather runs 12 waits (two steps, two answering
	// nodes per step, three waits per answer): 9600 timers over the run,
	// a few hundred bytes each while they stay live.
	if grew := liveHeap() - before; grew > 512<<10 {
		t.Fatalf("live heap grew %d KB over %d sessions of %d all-gathers", grew>>10, sessions, phases)
	}
}

func TestTCPAllGatherCube(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			xs := startTCPCluster(t, n)
			runAllGather(t, xs, PhaseItemCounts)
			runAllGather(t, xs, PhaseTHT) // distinct phases don't collide
		})
	}
}

func TestTCPAllGatherStarFallback(t *testing.T) {
	for _, n := range []int{3, 5, 6} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runAllGather(t, startTCPCluster(t, n), PhaseItemCounts)
		})
	}
}

func TestTCPPoll(t *testing.T) {
	xs := startTCPCluster(t, 2)
	xs[1].SetPollHandler(func(k int, sets []itemset.Itemset) []int32 {
		counts := make([]int32, len(sets))
		for i, s := range sets {
			counts[i] = int32(s[0]) * int32(k)
		}
		return counts
	})
	sets := []itemset.Itemset{{3, 9}, {5, 7}}
	counts, err := xs[0].Poll(1, 2, sets)
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if len(counts) != 2 || counts[0] != 6 || counts[1] != 10 {
		t.Fatalf("counts = %v, want [6 10]", counts)
	}
	// Second poll reuses the persistent connection.
	if _, err := xs[0].Poll(1, 2, sets); err != nil {
		t.Fatalf("second Poll: %v", err)
	}
	if s := xs[0].Stats().Snapshot(); s.Retries != 0 {
		t.Fatalf("unexpected retries: %+v", s)
	}
}

func TestTCPPollNoHandlerIsAttributedError(t *testing.T) {
	xs := startTCPCluster(t, 2)
	_, err := xs[0].Poll(1, 1, []itemset.Itemset{{1}})
	if err == nil {
		t.Fatal("want error when peer has no poll handler")
	}
}

func TestTCPPollRecoversFromDroppedConn(t *testing.T) {
	xs := startTCPCluster(t, 2)
	xs[1].SetPollHandler(func(k int, sets []itemset.Itemset) []int32 {
		return make([]int32, len(sets))
	})
	if _, err := xs[0].Poll(1, 1, []itemset.Itemset{{1}}); err != nil {
		t.Fatalf("first Poll: %v", err)
	}
	// Kill the persistent poll connection out from under the client;
	// the next poll must redial transparently.
	xs[0].pollPeers[1].mu.Lock()
	xs[0].pollPeers[1].conn.Close()
	xs[0].pollPeers[1].mu.Unlock()
	if _, err := xs[0].Poll(1, 1, []itemset.Itemset{{2}}); err != nil {
		t.Fatalf("Poll after drop: %v", err)
	}
	if s := xs[0].Stats().Snapshot(); s.Retries == 0 {
		t.Fatalf("expected a counted retry after the drop, stats %+v", s)
	}
}

// TestTCPCloseCutsBlockedPoll: Close must cut a poll waiting on a peer
// that never answers — the peer node of an aborted session, say, whose
// daemon no longer hosts it — instead of leaving the poll, and the
// session with it, to the IO timeout.
func TestTCPCloseCutsBlockedPoll(t *testing.T) {
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	batch := make(chan struct{}, 1)
	go func() {
		conn, err := silent.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			typ, _, err := ReadFrame(conn, nil)
			if err != nil {
				return
			}
			if typ == MsgCandidateBatch {
				batch <- struct{}{}
			}
		}
	}()
	x, err := NewTCP(TCPOptions{
		ClusterID: 7, NodeID: 0, Nodes: 2, Peers: []string{"127.0.0.1:1", silent.Addr().String()},
		IOTimeout: time.Hour, WaitTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	polled := make(chan error, 1)
	go func() {
		_, err := x.Poll(1, 1, []itemset.Itemset{{3}})
		polled <- err
	}()
	select {
	case <-batch:
	case <-time.After(5 * time.Second):
		t.Fatal("the candidate batch never reached the peer")
	}
	go x.Close()
	select {
	case err := <-polled:
		if err == nil {
			t.Fatal("poll of a silent peer succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a poll blocked on a silent peer")
	}
}

func TestTCPDeadPeerExhaustsRetries(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // nothing listens here anymore
	x, err := NewTCP(TCPOptions{
		ClusterID: 1, NodeID: 0, Nodes: 2,
		Peers:       []string{"unused", dead},
		Retry:       RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		IOTimeout:   200 * time.Millisecond,
		WaitTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	_, err = x.Poll(1, 1, []itemset.Itemset{{1}})
	if err == nil {
		t.Fatal("want error polling a dead peer")
	}
	if s := x.Stats().Snapshot(); s.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (3 attempts)", s.Retries)
	}
}

func TestTCPRejectsWrongClusterID(t *testing.T) {
	xs := startTCPCluster(t, 2)
	intruder, err := NewTCP(TCPOptions{
		ClusterID: 999, NodeID: 0, Nodes: 2,
		Peers:       []string{"unused", xs[1].opt.Peers[1]},
		Retry:       RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		IOTimeout:   300 * time.Millisecond,
		WaitTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer intruder.Close()
	if _, err := intruder.Poll(1, 1, []itemset.Itemset{{1}}); err == nil {
		t.Fatal("want error for mismatched cluster id")
	}
}

func TestChanExchangeAllGatherAndPoll(t *testing.T) {
	xs := NewChanGroup(4, nil)
	var wg sync.WaitGroup
	outs := make([][][]byte, 4)
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _ = xs[i].AllGather(PhaseTHT, []byte{byte(i)})
		}(i)
	}
	wg.Wait()
	for i := range xs {
		for j := range xs {
			if len(outs[i][j]) != 1 || outs[i][j][0] != byte(j) {
				t.Fatalf("node %d slot %d = %v", i, j, outs[i][j])
			}
		}
	}

	xs[2].SetPollHandler(func(k int, sets []itemset.Itemset) []int32 {
		counts := make([]int32, len(sets))
		for i := range counts {
			counts[i] = 7
		}
		return counts
	})
	counts, err := xs[0].Poll(2, 1, []itemset.Itemset{{4}})
	if err != nil || len(counts) != 1 || counts[0] != 7 {
		t.Fatalf("Poll = %v, %v", counts, err)
	}
	if _, err := xs[0].Poll(0, 1, nil); err == nil {
		t.Fatal("want error for self-poll")
	}
	if _, err := xs[0].Poll(1, 1, []itemset.Itemset{{1}}); err == nil {
		t.Fatal("want error for handler-less peer")
	}
}

// TestChanExchangeChargesFabric: a simulated group prices each collective
// once, after every node arrived (an all-reduce for item counts, a bare
// barrier for the deferred phase, an all-gather of the largest
// contribution otherwise), charges both clocks for a poll, and a closed
// group releases a node waiting for a peer that never comes.
func TestChanExchangeChargesFabric(t *testing.T) {
	const n = 4
	f := cluster.New(n, cluster.FastEthernet)
	ref := cluster.New(n, cluster.FastEthernet)
	xs := NewChanGroup(n, f)
	collective := func(phase Phase, bytes func(i int) int64) {
		var wg sync.WaitGroup
		for i := range xs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				vals, err := xs[i].Share(phase, i, bytes(i))
				if err != nil || len(vals) != n || vals[3] != 3 {
					t.Errorf("node %d: Share = %v, %v", i, vals, err)
				}
			}(i)
		}
		wg.Wait()
	}
	collective(PhaseItemCounts, func(int) int64 { return 400 })
	if _, got := xs[1].Collective(PhaseItemCounts); got != ref.AllReduce(400) {
		t.Fatalf("item-count all-reduce charged %v s", got)
	}
	collective(PhaseTHT, func(i int) int64 { return int64(100 * (i + 1)) })
	if _, got := xs[0].Collective(PhaseTHT); got != ref.AllGather(400) {
		t.Fatalf("THT all-gather charged %v s, not the largest contribution's", got)
	}
	collective(PhaseDeferred, func(int) int64 { return 1 })
	if start, got := xs[2].Collective(PhaseDeferred); got != 0 || start != f.MaxClock() {
		t.Fatalf("deferred barrier at %v s took %v s, want %v s and 0", start, got, f.MaxClock())
	}

	xs[2].SetPollHandler(func(k int, sets []itemset.Itemset) []int32 { return make([]int32, len(sets)) })
	before0, before2 := f.Clock(0).Now(), f.Clock(2).Now()
	if _, err := xs[0].Poll(2, 3, []itemset.Itemset{{1, 2, 3}, {1, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	ref.ChargeSend(0, 2, 16+4*3*2)
	ref.ChargeSend(2, 0, 16+4*2)
	if f.Clock(0).Now()-before0 <= 0 || f.Clock(0).Now() != ref.Clock(0).Now() || f.Clock(2).Now() != ref.Clock(2).Now() {
		t.Fatalf("poll charged clocks %v/%v s (from %v/%v), want %v/%v s",
			f.Clock(0).Now(), f.Clock(2).Now(), before0, before2, ref.Clock(0).Now(), ref.Clock(2).Now())
	}

	waiting := make(chan error, 1)
	go func() {
		_, err := xs[0].Share(PhaseFinal, nil, 0)
		waiting <- err
	}()
	xs[3].Close()
	if err := <-waiting; err == nil {
		t.Fatal("closed group left a collective waiting without error")
	}
}

func TestChanExchangeDoubleEntryFails(t *testing.T) {
	xs := NewChanGroup(1, nil)
	if _, err := xs[0].AllGather(PhaseFinal, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := xs[0].AllGather(PhaseFinal, nil); err == nil {
		t.Fatal("want error entering the same phase twice")
	}
}
