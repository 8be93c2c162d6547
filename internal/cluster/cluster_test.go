package cluster

import (
	"math"
	"sync"
	"testing"

	"pmihp/internal/mining"
)

func TestCubeSteps(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4}
	for n, want := range cases {
		if got := CubeSteps(n); got != want {
			t.Errorf("CubeSteps(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCubePartner(t *testing.T) {
	// In the paper's 3-cube, node 000 links to 001, 010, 100.
	wants := []int{1, 2, 4}
	for d, want := range wants {
		p, ok := CubePartner(0, d, 8)
		if !ok || p != want {
			t.Fatalf("CubePartner(0, %d, 8) = %d, %v", d, p, ok)
		}
	}
	// Partnering is symmetric.
	for _, n := range []int{2, 4, 8} {
		for i := 0; i < n; i++ {
			for d := 0; d < CubeSteps(n); d++ {
				p, ok := CubePartner(i, d, n)
				if !ok {
					continue
				}
				back, ok2 := CubePartner(p, d, n)
				if !ok2 || back != i {
					t.Fatalf("asymmetric partner: n=%d i=%d d=%d", n, i, d)
				}
			}
		}
	}
	// Non-power-of-two: missing partners reported.
	if _, ok := CubePartner(2, 0, 3); ok {
		t.Fatal("partner 3 should not exist with n=3")
	}
}

// TestClockConcurrentAdvance: concurrent charges sum exactly — the clock
// counts whole picoseconds, so the total cannot depend on the order the
// goroutines happened to run in.
func TestClockConcurrentAdvance(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AdvanceWork(int64(1 + i + j%7))
			}
		}(i)
	}
	wg.Wait()
	want := 0.0
	for i := 0; i < 8; i++ {
		for j := 0; j < 1000; j++ {
			want += float64(1+i+j%7) / mining.UnitsPerSecond
		}
	}
	var serial Clock
	for i := 7; i >= 0; i-- {
		for j := 999; j >= 0; j-- {
			serial.AdvanceWork(int64(1 + i + j%7))
		}
	}
	if c.Now() != serial.Now() {
		t.Fatalf("concurrent clock %v != serial clock %v", c.Now(), serial.Now())
	}
	if math.Abs(c.Now()-want) > 1e-9 {
		t.Fatalf("clock = %v, want %v", c.Now(), want)
	}
}

// TestChargesCommute: message charges round once each, so any order of the
// same charges — across nodes and interleaved with work — ends on the same
// picosecond.
func TestChargesCommute(t *testing.T) {
	sizes := []int64{17, 4096, 3, 250_000, 1, 999_983}
	run := func(order []int) float64 {
		f := New(2, FastEthernet)
		for _, i := range order {
			f.ChargeSend(i%2, 1-i%2, sizes[i])
			f.Clock(i % 2).AdvanceWork(sizes[i] % 1000)
		}
		return f.Barrier()
	}
	want := run([]int{0, 1, 2, 3, 4, 5})
	for _, order := range [][]int{{5, 4, 3, 2, 1, 0}, {2, 5, 0, 3, 1, 4}} {
		if got := run(order); got != want {
			t.Fatalf("order %v: %v s, want %v s", order, got, want)
		}
	}
}

func TestAdvanceWorkUsesCostModel(t *testing.T) {
	var c Clock
	c.AdvanceWork(mining.UnitsPerSecond)
	if math.Abs(c.Now()-1.0) > 1e-9 {
		t.Fatalf("1 second of work units = %g seconds", c.Now())
	}
}

func TestChargeSendAccounting(t *testing.T) {
	f := New(2, NetParams{LatencySec: 0.001, BytesPerSec: 1000})
	f.ChargeSend(0, 1, 500)
	want := 0.001 + 0.5
	if math.Abs(f.Clock(0).Now()-want) > 1e-9 || math.Abs(f.Clock(1).Now()-want) > 1e-9 {
		t.Fatalf("clocks = %g, %g, want %g", f.Clock(0).Now(), f.Clock(1).Now(), want)
	}
	msgs, bytes := f.Stats(0).Snapshot()
	if msgs != 1 || bytes != 500 {
		t.Fatalf("sender stats = %d msgs, %d bytes", msgs, bytes)
	}
	msgs, _ = f.Stats(1).Snapshot()
	if msgs != 0 {
		t.Fatal("receiver gained origination stats")
	}
}

func TestBarrier(t *testing.T) {
	f := New(3, FastEthernet)
	f.Clock(0).AdvanceWork(1 * mining.UnitsPerSecond)
	f.Clock(2).AdvanceWork(5 * mining.UnitsPerSecond)
	max := f.Barrier()
	if max != 5 {
		t.Fatalf("Barrier = %g", max)
	}
	for i := 0; i < 3; i++ {
		if f.Clock(i).Now() != 5 {
			t.Fatalf("clock %d = %g after barrier", i, f.Clock(i).Now())
		}
	}
	if f.MaxClock() != 5 {
		t.Fatalf("MaxClock = %g", f.MaxClock())
	}
}

func TestAllGatherCost(t *testing.T) {
	net := NetParams{LatencySec: 0.01, BytesPerSec: 1e6}
	f := New(8, net)
	elapsed := f.AllGather(1000)
	// 3 steps exchanging 1, 2, 4 blocks.
	want := net.MsgSec(1000) + net.MsgSec(2000) + net.MsgSec(4000)
	if math.Abs(elapsed-want) > 1e-9 {
		t.Fatalf("AllGather = %g, want %g", elapsed, want)
	}
	for i := 0; i < 8; i++ {
		if math.Abs(f.Clock(i).Now()-want) > 1e-9 {
			t.Fatalf("clock %d = %g", i, f.Clock(i).Now())
		}
	}
	// Single node: free.
	f1 := New(1, net)
	if f1.AllGather(1000) != 0 {
		t.Fatal("1-node AllGather should cost nothing")
	}
}

func TestAllReduceCost(t *testing.T) {
	net := NetParams{LatencySec: 0.01, BytesPerSec: 1e6}
	f := New(4, net)
	elapsed := f.AllReduce(4096)
	want := 2 * net.MsgSec(4096) // 2 cube steps, constant vector size
	if math.Abs(elapsed-want) > 1e-9 {
		t.Fatalf("AllReduce = %g, want %g", elapsed, want)
	}
}

func TestAllGatherSynchronizesFirst(t *testing.T) {
	f := New(2, FastEthernet)
	f.Clock(1).AdvanceWork(3 * mining.UnitsPerSecond)
	f.AllGather(100)
	if f.Clock(0).Now() < 3 {
		t.Fatal("AllGather did not synchronize the slow node")
	}
}

func TestMsgSec(t *testing.T) {
	p := NetParams{LatencySec: 0.5, BytesPerSec: 100}
	if got := p.MsgSec(50); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("MsgSec = %g", got)
	}
}

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, FastEthernet)
}

func TestAllGatherTimeTopologies(t *testing.T) {
	net := NetParams{LatencySec: 0.001, BytesPerSec: 1e6}
	for _, n := range []int{2, 4, 8, 16} {
		h := AllGatherTime(Hypercube, n, 1000, net)
		r := AllGatherTime(Ring, n, 1000, net)
		s := AllGatherTime(Star, n, 1000, net)
		if h > r+1e-12 || r > s+1e-12 {
			t.Fatalf("n=%d: expected hypercube <= ring <= star, got %g, %g, %g", n, h, r, s)
		}
	}
	if AllGatherTime(Hypercube, 1, 1000, net) != 0 {
		t.Fatal("single node should cost nothing")
	}
	// Exact hypercube value for 8 nodes.
	want := net.MsgSec(1000) + net.MsgSec(2000) + net.MsgSec(4000)
	if got := AllGatherTime(Hypercube, 8, 1000, net); math.Abs(got-want) > 1e-12 {
		t.Fatalf("hypercube(8) = %g, want %g", got, want)
	}
	// Exact ring value.
	if got := AllGatherTime(Ring, 8, 1000, net); math.Abs(got-7*net.MsgSec(1000)) > 1e-12 {
		t.Fatalf("ring(8) = %g", got)
	}
}

func TestTopologyString(t *testing.T) {
	if Hypercube.String() != "hypercube" || Ring.String() != "ring" || Star.String() != "star" {
		t.Fatal("topology names wrong")
	}
	if Topology(99).String() != "unknown" {
		t.Fatal("unknown topology name")
	}
}
