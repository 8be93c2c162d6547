package stats

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSpeedup(t *testing.T) {
	got := Speedup(80, []float64{80, 48.5, 21.3, 0})
	if !almost(got[0], 1) || !almost(got[1], 80/48.5) || got[3] != 0 {
		t.Fatalf("Speedup = %v", got)
	}
}

func TestGrowthRates(t *testing.T) {
	got := GrowthRates([]float64{1, 1.65, 3.76})
	if len(got) != 2 || !almost(got[0], 1.65) || !almost(got[1], 3.76/1.65) {
		t.Fatalf("GrowthRates = %v", got)
	}
	if GrowthRates([]float64{1}) != nil {
		t.Fatal("short series should give nil")
	}
	zero := GrowthRates([]float64{0, 5})
	if zero[0] != 0 {
		t.Fatal("division by zero not guarded")
	}
}
