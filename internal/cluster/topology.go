package cluster

// Alternative collective-communication topologies. The paper imposes "a
// logical binary n-cube structure on the processing nodes" so that local
// information merges in n steps over increasingly higher-dimensional links
// (§2.4, citing Chung & Yang); the A10 ablation uses these models to show
// what that choice buys over naive patterns.

// Topology identifies a collective-exchange pattern.
type Topology int

const (
	// Hypercube is the paper's binary n-cube: ⌈log2 n⌉ exchange-merge
	// steps, data volume doubling per step in an all-gather.
	Hypercube Topology = iota
	// Ring passes blocks around a cycle: n-1 steps of one per-node block
	// each.
	Ring
	// Star funnels everything through node 0: n-1 sequential receives
	// followed by n-1 sequential broadcasts of the full payload.
	Star
)

func (t Topology) String() string {
	switch t {
	case Hypercube:
		return "hypercube"
	case Ring:
		return "ring"
	case Star:
		return "star"
	}
	return "unknown"
}

// AllGatherTime returns the modeled elapsed time of an all-gather in which
// every one of n nodes contributes perNodeBytes, under the given topology.
func AllGatherTime(t Topology, n int, perNodeBytes int64, net NetParams) float64 {
	if n <= 1 {
		return 0
	}
	switch t {
	case Ring:
		// n-1 steps; in each, every node forwards one block to its
		// successor in parallel.
		return float64(n-1) * net.MsgSec(perNodeBytes)
	case Star:
		// The hub receives n-1 blocks one at a time, then sends the full
		// n-block payload to each spoke in turn.
		in := float64(n-1) * net.MsgSec(perNodeBytes)
		out := float64(n-1) * net.MsgSec(perNodeBytes*int64(n))
		return in + out
	default: // Hypercube
		elapsed := 0.0
		for d := 0; d < CubeSteps(n); d++ {
			elapsed += net.MsgSec(perNodeBytes * int64(1<<d))
		}
		return elapsed
	}
}
