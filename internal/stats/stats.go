// Package stats provides the small statistical helpers the experiment
// harness uses for reporting: means, speedup and efficiency series.
package stats

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Speedup returns base/t for each t, the speedup series of Figure 7.
// Non-positive times yield 0 rather than infinities.
func Speedup(base float64, times []float64) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		if t > 0 {
			out[i] = base / t
		}
	}
	return out
}

// Efficiency returns speedup divided by the node count for each entry.
func Efficiency(speedups []float64, nodes []int) []float64 {
	out := make([]float64, len(speedups))
	for i := range speedups {
		if i < len(nodes) && nodes[i] > 0 {
			out[i] = speedups[i] / float64(nodes[i])
		}
	}
	return out
}

// GrowthRates returns s[i]/s[i-1] for i >= 1 — the paper discusses the
// "increasing rate of the speedup" as the node count doubles.
func GrowthRates(s []float64) []float64 {
	if len(s) < 2 {
		return nil
	}
	out := make([]float64, 0, len(s)-1)
	for i := 1; i < len(s); i++ {
		if s[i-1] > 0 {
			out = append(out, s[i]/s[i-1])
		} else {
			out = append(out, 0)
		}
	}
	return out
}
