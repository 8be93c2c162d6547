package cluster

import (
	"math/bits"
	"testing"
)

// CubePartner returns the partner of node i along dimension d (0-based) and
// whether that partner exists (it may not when n is not a power of two).
func CubePartner(i, d, n int) (partner int, ok bool) {
	p := i ^ (1 << d)
	return p, p < n
}

// TestCubeStepsBoundaries pins the step count at and around the
// boundaries the TCP exchange depends on (the star fallback triggers
// exactly when n is not a power of two).
func TestCubeStepsBoundaries(t *testing.T) {
	cases := map[int]int{
		0: 0, 1: 0, // degenerate clusters exchange nothing
		2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 3,
		15: 4, 16: 4, 17: 5, 31: 5, 32: 5, 33: 6,
	}
	for n, want := range cases {
		if got := CubeSteps(n); got != want {
			t.Errorf("CubeSteps(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestCubePartnerNonPowerOfTwo checks the partner relation off powers
// of two: every reported partner is in range, symmetric, and differs
// from its node in exactly the step's bit; and at least one (node,
// step) pair has no partner, which is what forces the fallback path.
func TestCubePartnerNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 9, 12} {
		missing := 0
		for i := 0; i < n; i++ {
			for d := 0; d < CubeSteps(n); d++ {
				p, ok := CubePartner(i, d, n)
				if !ok {
					missing++
					continue
				}
				if p < 0 || p >= n || p == i {
					t.Fatalf("n=%d: CubePartner(%d, %d) = %d out of range", n, i, d, p)
				}
				if i^p != 1<<d {
					t.Fatalf("n=%d: partner %d of %d differs in bits %b, want bit %d", n, p, i, i^p, d)
				}
				back, ok2 := CubePartner(p, d, n)
				if !ok2 || back != i {
					t.Fatalf("n=%d: asymmetric partnering at i=%d d=%d", n, i, d)
				}
			}
		}
		if missing == 0 {
			t.Fatalf("n=%d: expected missing partners off a power of two", n)
		}
	}
	// Powers of two have a full partner set.
	for _, n := range []int{2, 4, 8, 16} {
		for i := 0; i < n; i++ {
			for d := 0; d < CubeSteps(n); d++ {
				if _, ok := CubePartner(i, d, n); !ok {
					t.Fatalf("n=%d: missing partner at i=%d d=%d", n, i, d)
				}
			}
		}
	}
}

// TestCubeCoverage simulates recursive doubling on power-of-two
// clusters: swapping everything gathered so far with the dimension-d
// partner at each step must leave every node holding all n blocks
// after CubeSteps(n) steps — the property the paper's n-cube exchange
// (§2.4) and the TCP all-gather rely on.
func TestCubeCoverage(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		have := make([]uint64, n) // bitmask of blocks held per node
		for i := range have {
			have[i] = 1 << i
		}
		for d := 0; d < CubeSteps(n); d++ {
			next := make([]uint64, n)
			for i := 0; i < n; i++ {
				p, ok := CubePartner(i, d, n)
				if !ok {
					t.Fatalf("n=%d: missing partner at i=%d d=%d", n, i, d)
				}
				next[i] = have[i] | have[p]
			}
			have = next
		}
		all := uint64(1)<<n - 1
		for i, h := range have {
			if h != all {
				t.Fatalf("n=%d: node %d holds %d/%d blocks after %d steps",
					n, i, bits.OnesCount64(h), n, CubeSteps(n))
			}
		}
	}
}

// TestSingleNodeDegenerate checks that a 1-node cluster's collectives
// are free under every topology and leave no trace in clocks or stats.
func TestSingleNodeDegenerate(t *testing.T) {
	for _, topo := range []Topology{Hypercube, Ring, Star} {
		if got := AllGatherTime(topo, 1, 1<<20, FastEthernet); got != 0 {
			t.Fatalf("%s: AllGatherTime(1) = %g", topo, got)
		}
	}
	f := New(1, FastEthernet)
	if f.AllGather(100) != 0 || f.AllReduce(100) != 0 {
		t.Fatal("1-node cube collectives should cost nothing")
	}
	if f.Clock(0).Now() != 0 {
		t.Fatalf("clock advanced to %g", f.Clock(0).Now())
	}
	if msgs, bytes := f.Stats(0).Snapshot(); msgs != 0 || bytes != 0 {
		t.Fatalf("stats charged: %d msgs, %d bytes", msgs, bytes)
	}
	if f.Barrier() != 0 {
		t.Fatal("1-node barrier moved the clock")
	}
}
