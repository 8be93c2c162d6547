package benchharness

import (
	"fmt"
	"strings"
	"testing"
)

// TestCompareRejectsPreV2Baseline pins that a baseline older than the
// current schema fails the comparison, naming its version and the fix,
// instead of silently dropping to a wall-clock-only check — while a
// current baseline still gates every field.
func TestCompareRejectsPreV2Baseline(t *testing.T) {
	cur := &Report{SchemaVersion: SchemaVersion, Workloads: []Result{
		{Name: "w", NsPerOp: 100, BytesHeld: 1000, SimSeconds: 2},
	}}
	for _, v := range []int{0, 1} {
		base := &Report{SchemaVersion: v, Workloads: cur.Workloads}
		_, err := Compare(base, cur, 0.2)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("schema version %d", v)) ||
			!strings.Contains(err.Error(), "regenerate") {
			t.Fatalf("schema v%d baseline: err = %v", v, err)
		}
	}
	base := &Report{SchemaVersion: SchemaVersion, Workloads: []Result{
		{Name: "w", NsPerOp: 100, BytesHeld: 500, SimSeconds: 3},
	}}
	bad, err := Compare(base, cur, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 {
		t.Fatalf("want bytes_held and sim-seconds regressions, got %q", bad)
	}
}
