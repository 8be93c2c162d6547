// Package cluster provides the simulated cluster-of-workstations substrate
// the parallel miners run on: per-node simulated clocks driven by the
// mining cost model, a network cost model calibrated to the paper's Fast
// Ethernet testbed, the logical binary n-cube exchange pattern of PMIHP's
// communication steps, and per-node traffic statistics.
//
// The processing nodes themselves are goroutines (see internal/core and
// internal/countdist); this package supplies the time and cost accounting.
// DESIGN.md §2 documents why simulated time is the honest way to evaluate
// an 8-node algorithm on this host and why it preserves the paper's
// comparisons: every reported effect is driven by per-node candidate and
// scan counts, which are measured exactly.
package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"pmihp/internal/mining"
)

// NetParams models the interconnect: a fixed per-message latency and a
// point-to-point bandwidth.
type NetParams struct {
	LatencySec  float64
	BytesPerSec float64
}

// FastEthernet approximates the paper's switched 100 Mbit/s Fast Ethernet
// with Java RMI overheads (RMI round trips cost well above raw wire
// latency).
var FastEthernet = NetParams{LatencySec: 500e-6, BytesPerSec: 11e6}

// MsgSec returns the modeled one-way transfer time of a message.
func (p NetParams) MsgSec(bytes int64) float64 {
	return p.LatencySec + float64(bytes)/p.BytesPerSec
}

// Clock is a node's simulated clock. It counts whole picoseconds, so
// charges sum exactly in any order: a node's poll service and its miner
// advance it from different goroutines, and the total never depends on
// which ran first. It is safe for concurrent use.
type Clock struct {
	ps atomic.Int64
}

// psPerSecond and psPerUnit convert seconds and cost-model work units to
// clock ticks; a work unit is exactly psPerUnit picoseconds.
const (
	psPerSecond = 1_000_000_000_000
	psPerUnit   = psPerSecond / mining.UnitsPerSecond
)

// toPS rounds a modeled duration to whole picoseconds, once per charge.
func toPS(s float64) int64 { return int64(math.Round(s * psPerSecond)) }

func seconds(ps int64) float64 { return float64(ps) / psPerSecond }

// AdvanceWork advances the clock by the simulated duration of the given
// cost-model work units.
func (c *Clock) AdvanceWork(units int64) { c.ps.Add(units * psPerUnit) }

// raiseTo lifts the clock to at least ps (barrier semantics).
func (c *Clock) raiseTo(ps int64) {
	for {
		cur := c.ps.Load()
		if cur >= ps || c.ps.CompareAndSwap(cur, ps) {
			return
		}
	}
}

// Now returns the current simulated time in seconds.
func (c *Clock) Now() float64 { return seconds(c.ps.Load()) }

// NodeStats tallies the traffic a node originates.
type NodeStats struct {
	mu       sync.Mutex
	Messages int
	Bytes    int64
}

func (s *NodeStats) add(msgs int, bytes int64) {
	s.mu.Lock()
	s.Messages += msgs
	s.Bytes += bytes
	s.mu.Unlock()
}

// Snapshot returns the current totals.
func (s *NodeStats) Snapshot() (msgs int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Messages, s.Bytes
}

// Fabric is the simulated interconnect for one parallel run.
type Fabric struct {
	n      int
	net    NetParams
	clocks []*Clock
	stats  []*NodeStats
}

// New returns a fabric for n nodes.
func New(n int, net NetParams) *Fabric {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: New(%d)", n))
	}
	f := &Fabric{n: n, net: net, clocks: make([]*Clock, n), stats: make([]*NodeStats, n)}
	for i := range f.clocks {
		f.clocks[i] = &Clock{}
		f.stats[i] = &NodeStats{}
	}
	return f
}

// N returns the node count.
func (f *Fabric) N() int { return f.n }

// Clock returns node i's clock.
func (f *Fabric) Clock(i int) *Clock { return f.clocks[i] }

// Stats returns node i's traffic stats.
func (f *Fabric) Stats(i int) *NodeStats { return f.stats[i] }

// ChargeSend accounts a point-to-point message: the sender's clock and
// traffic advance by the transfer cost, and the receiver's clock advances by
// the same cost (receive-side processing).
func (f *Fabric) ChargeSend(from, to int, bytes int64) {
	t := toPS(f.net.MsgSec(bytes))
	f.clocks[from].ps.Add(t)
	f.clocks[to].ps.Add(t)
	f.stats[from].add(1, bytes)
}

// Barrier raises every clock to the current maximum and returns it —
// the synchronization point between parallel phases.
func (f *Fabric) Barrier() float64 {
	max := f.maxPS()
	for _, c := range f.clocks {
		c.raiseTo(max)
	}
	return seconds(max)
}

// MaxClock returns the largest node clock — the total execution time of a
// parallel run.
func (f *Fabric) MaxClock() float64 { return seconds(f.maxPS()) }

func (f *Fabric) maxPS() int64 {
	max := int64(0)
	for _, c := range f.clocks {
		if t := c.ps.Load(); t > max {
			max = t
		}
	}
	return max
}

// CubeSteps returns the number of exchange-merge steps of the logical binary
// n-cube over n nodes (⌈log2 n⌉; the paper's 8 nodes form a 3-cube).
func CubeSteps(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// AllGather performs the cost accounting of a hypercube all-gather in which
// every node contributes perNodeBytes: at step d each node exchanges the
// 2^d blocks gathered so far with its dimension-d partner. All clocks
// synchronize first (it is a collective) and advance together; per-node
// traffic grows by the bytes each node sends. It returns the elapsed
// simulated time of the collective.
func (f *Fabric) AllGather(perNodeBytes int64) float64 {
	if f.n == 1 {
		return 0
	}
	f.Barrier()
	elapsed := 0.0
	for d := 0; d < CubeSteps(f.n); d++ {
		blockBytes := perNodeBytes * int64(1<<d)
		elapsed += f.net.MsgSec(blockBytes)
		for i := 0; i < f.n; i++ {
			f.stats[i].add(1, blockBytes)
		}
	}
	return f.advanceAll(elapsed)
}

// AllReduce performs the cost accounting of a hypercube all-reduce of a
// fixed-size vector (bytes per step is constant, unlike AllGather).
func (f *Fabric) AllReduce(vectorBytes int64) float64 {
	if f.n == 1 {
		return 0
	}
	f.Barrier()
	elapsed := 0.0
	for d := 0; d < CubeSteps(f.n); d++ {
		elapsed += f.net.MsgSec(vectorBytes)
		for i := 0; i < f.n; i++ {
			f.stats[i].add(1, vectorBytes)
		}
	}
	return f.advanceAll(elapsed)
}

// advanceAll charges a collective's elapsed time, rounded once, to every
// clock and returns the charged duration.
func (f *Fabric) advanceAll(elapsed float64) float64 {
	t := toPS(elapsed)
	for _, c := range f.clocks {
		c.ps.Add(t)
	}
	return seconds(t)
}
