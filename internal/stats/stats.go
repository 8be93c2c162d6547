// Package stats provides the small statistical helpers the experiment
// harness uses for reporting: speedup and growth-rate series.
package stats

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
