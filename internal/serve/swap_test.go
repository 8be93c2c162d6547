package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGenerationDrainProtocol pins the epoch protocol directly: a
// retired generation must not report drained while a query holds it,
// and must report drained as soon as the last hold releases.
func TestGenerationDrainProtocol(t *testing.T) {
	s := loadedServer(t, Config{Replicas: 1})
	rep := s.replicas[0]
	g1 := acquireFrom(&rep.gen)
	if g1 == nil || g1.ID != 1 {
		t.Fatalf("acquired %+v", g1)
	}
	if _, err := s.Swap(fixture(t).ws, "second"); err != nil {
		t.Fatal(err)
	}
	if g1.drainedNow() {
		t.Fatal("retired generation drained with a query in flight")
	}
	if got := s.UndrainedOld(); got != 1 {
		t.Fatalf("UndrainedOld = %d, want 1", got)
	}
	// New queries must already land on generation 2.
	g2 := acquireFrom(&rep.gen)
	if g2.ID != 2 {
		t.Fatalf("post-swap acquire got generation %d", g2.ID)
	}
	g2.release()
	g1.release()
	select {
	case <-g1.drained:
	case <-time.After(5 * time.Second):
		t.Fatal("generation never drained after last release")
	}
	if got := s.UndrainedOld(); got != 0 {
		t.Fatalf("UndrainedOld = %d after drain", got)
	}
	// The live generation never drains (it is not retired).
	if g2.drainedNow() {
		t.Fatal("live generation reports drained")
	}
}

// TestSwapPrunesRetiredGenerations pins that Swap itself forgets drained
// generations, so a server that is swapped but never scraped does not
// keep every retired index: after many unqueried swaps none is retained,
// and a generation pinned by an in-flight query stays retained exactly
// until that query releases it.
func TestSwapPrunesRetiredGenerations(t *testing.T) {
	s := loadedServer(t, Config{Replicas: 1})
	ws := fixture(t).ws
	retained := func() []*Generation {
		s.oldMu.Lock()
		defer s.oldMu.Unlock()
		return append([]*Generation(nil), s.oldGens...)
	}
	swap := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Swap(ws, fmt.Sprintf("swap %d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	swap(10)
	if old := retained(); len(old) != 0 {
		t.Fatalf("%d retired generations retained after 10 unqueried swaps", len(old))
	}
	pinned := acquireFrom(&s.replicas[0].gen)
	swap(3)
	if old := retained(); len(old) != 1 || old[0] != pinned {
		t.Fatalf("retained %d generations, want only the pinned one", len(old))
	}
	pinned.release()
	swap(1)
	if old := retained(); len(old) != 0 {
		t.Fatalf("%d retired generations retained after the pin released", len(old))
	}
}

// TestHotSwapUnderConcurrentLoad is the swap gate: a storm of concurrent
// queries across repeated generation swaps must drop zero queries (every
// response 200 with a well-formed body and a plausible generation id),
// every retired generation must drain, and the process must not leak
// goroutines. Run under -race this also proves the swap path's memory
// ordering.
func TestHotSwapUnderConcurrentLoad(t *testing.T) {
	fx := fixture(t)
	baseline := runtime.NumGoroutine()
	s := loadedServer(t, Config{Replicas: 4, CacheSize: 64})
	h := s.Handler(nil)

	const clients = 8
	const swaps = 25
	var stop atomic.Bool
	var served, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				w := fx.words[(i*clients+c)%len(fx.words)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/expand?q="+url.QueryEscape(w), nil))
				if rec.Code != http.StatusOK {
					failed.Add(1)
					continue
				}
				var body expandBody
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Generation < 1 || body.Generation > swaps+1 {
					failed.Add(1)
					continue
				}
				served.Add(1)
			}
		}(c)
	}

	gens := make([]*Generation, 0, swaps)
	for i := 0; i < swaps; i++ {
		g, err := s.Swap(fx.ws, fmt.Sprintf("swap %d", i))
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		gens = append(gens, g)
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d of %d queries dropped or malformed during swaps", failed.Load(), failed.Load()+served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no queries completed during the swap storm")
	}
	// Every generation but the last was retired and must drain now that
	// all queries have released.
	for i, g := range gens[:len(gens)-1] {
		select {
		case <-g.drained:
		case <-time.After(5 * time.Second):
			t.Fatalf("generation %d (swap %d) never drained", g.ID, i)
		}
	}
	if got := s.UndrainedOld(); got != 0 {
		t.Fatalf("%d retired generations undrained after load stopped", got)
	}
	if cur := s.Generation(); cur.ID != swaps+1 || cur.inflight.Load() != 0 {
		t.Fatalf("final generation %d inflight %d", cur.ID, cur.inflight.Load())
	}

	// No background machinery: goroutines must settle back to baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d > baseline %d", n, baseline)
	}
}

// TestFlightCoalescing drives many concurrent identical queries through
// one replica and checks the singleflight counters: with a barrier start
// at least some followers must coalesce onto a leader's computation, and
// all must receive the same payload.
func TestFlightCoalescing(t *testing.T) {
	g := newFlightGroup()
	var computes atomic.Int64
	var start, done sync.WaitGroup
	const n = 16
	results := make([][]byte, n)
	start.Add(1)
	block := make(chan struct{})
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			v, err := g.do(context.Background(), "k", func() ([]byte, error) {
				computes.Add(1)
				<-block // hold the leader so followers pile up
				return []byte("payload"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	start.Done()
	time.Sleep(50 * time.Millisecond) // let followers reach the group
	close(block)
	done.Wait()
	for i, v := range results {
		if string(v) != "payload" {
			t.Fatalf("caller %d got %q", i, v)
		}
	}
	if c := computes.Load(); c == 0 || c == n {
		t.Fatalf("computes = %d, want coalescing (0 < c < %d)", c, n)
	}
	if g.coalesced.Load() == 0 {
		t.Fatal("coalesced counter never moved")
	}
}
