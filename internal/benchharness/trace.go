package benchharness

import (
	"fmt"
	"math"
	"sort"

	"pmihp/internal/mining"
	"pmihp/internal/obs"
)

// VerifyTrace replays an observability event stream (a -trace-json file
// or a Keep-mode recorder's events) against the metrics of the run that
// produced it and returns the discrepancies, empty when the trace is
// consistent. It checks:
//
//   - pass totals: the trace's pass events must count exactly
//     Metrics.Passes executed passes;
//   - candidates per k: locally generated candidates (pass events) plus
//     poll-served candidate sets (poll events) must equal
//     Metrics.CandidatesByK, which merges miner and poll-service
//     accounting;
//   - pruning totals: pass events record deltas around executed passes
//     only — a generation whose candidates all prune away breaks before
//     the scan and emits nothing — so the trace may undercount pruning
//     but can never exceed the metrics;
//   - wire time: on a clean cluster run (WireSeconds measured, no
//     failovers) the collective spans re-use the exact phase
//     measurements WireSeconds sums, so their totals must agree. A
//     failover run also traces the aborted attempts' spans, which
//     WireSeconds deliberately excludes, so the check is skipped.
func VerifyTrace(events []obs.Event, m *mining.Metrics) []string {
	s := obs.Summarize(events)
	var bad []string

	if s.Passes != int64(m.Passes) {
		bad = append(bad, fmt.Sprintf("passes: trace has %d, metrics report %d", s.Passes, m.Passes))
	}

	ks := make(map[int]bool)
	for k := range s.CandidatesByK {
		ks[k] = true
	}
	for k := range s.PolledByK {
		ks[k] = true
	}
	for k := range m.CandidatesByK {
		ks[k] = true
	}
	sorted := make([]int, 0, len(ks))
	for k := range ks {
		sorted = append(sorted, k)
	}
	sort.Ints(sorted)
	for _, k := range sorted {
		traced := s.CandidatesByK[k] + s.PolledByK[k]
		if traced != int64(m.CandidatesByK[k]) {
			bad = append(bad, fmt.Sprintf("candidates k=%d: trace has %d (%d mined + %d polled), metrics report %d",
				k, traced, s.CandidatesByK[k], s.PolledByK[k], m.CandidatesByK[k]))
		}
	}

	for _, c := range []struct {
		name   string
		trace  int64
		metric int64
	}{
		{"pruned-tht", s.PrunedTHT, m.PrunedByTHT},
		{"pruned-subset", s.PrunedSubset, m.PrunedBySubset},
		{"trimmed-items", s.TrimmedItems, m.TrimmedItems},
		{"pruned-tx", s.PrunedTx, m.PrunedTx},
	} {
		if c.trace > c.metric {
			bad = append(bad, fmt.Sprintf("%s: trace has %d, exceeds metrics' %d", c.name, c.trace, c.metric))
		}
	}

	if m.WireSeconds > 0 && m.Failovers == 0 {
		spanWire := s.SpanSecondsPrefix("exchange:") + s.SpanSeconds["poll:resolve"]
		if math.Abs(spanWire-m.WireSeconds) > 1e-9+1e-6*m.WireSeconds {
			bad = append(bad, fmt.Sprintf("wire seconds: collective spans total %v, metrics report %v", spanWire, m.WireSeconds))
		}
	}
	return bad
}
