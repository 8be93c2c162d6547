package mining

import (
	"reflect"
	"testing"
)

// TestMergeFieldSemantics audits every Metrics field Merge touches for
// sum-vs-max correctness. The table is exhaustive by construction: the
// test reflects over Metrics and fails if a field appears that the table
// does not classify, so adding a field without deciding its cross-node
// semantics is a test failure.
func TestMergeFieldSemantics(t *testing.T) {
	// How each field aggregates across nodes when Merge folds them.
	const (
		sum    = "sum"    // additive across nodes
		max    = "max"    // aggregate is the worst node
		skip   = "skip"   // not merged (identity/label fields)
		nested = "nested" // merged via its own method, asserted separately
	)
	semantics := map[string]string{
		"Algorithm":            skip, // label of the aggregate, not merged
		"Passes":               sum,
		"CandidatesByK":        nested, // per-k sums via AddCandidates
		"PrunedBySubset":       sum,
		"PrunedByTHT":          sum,
		"PrunedByBucket":       sum,
		"TrimmedItems":         sum,
		"PrunedTx":             sum,
		"PeakCandidateBytes":   max, // per-node budget: report the worst node
		"PeakHeldBytes":        sum, // nodes coexist: cluster-wide footprint
		"FPTreeNodes":          max,
		"GlobalCandidates":     sum,
		"PollRounds":           sum,
		"MessagesSent":         sum,
		"BytesSent":            sum,
		"WireMessagesSent":     sum,
		"WireMessagesReceived": sum,
		"WireBytesSent":        sum,
		"WireBytesReceived":    sum,
		"WireRetries":          sum,
		"WireSeconds":          sum,
		"Failovers":            sum,
		"RebalancedPartitions": sum,
		"ElasticResizes":       sum,
		"RecoverySeconds":      sum,
		"Work":                 nested, // Work.Add sums Units
	}

	mt := reflect.TypeOf(Metrics{})
	for i := 0; i < mt.NumField(); i++ {
		name := mt.Field(i).Name
		if _, ok := semantics[name]; !ok {
			t.Errorf("Metrics field %s has no entry in the merge-semantics table: decide sum-vs-max and add it (and Merge)", name)
		}
	}
	for name := range semantics {
		if _, ok := mt.FieldByName(name); !ok {
			t.Errorf("merge-semantics table lists %s, which is not a Metrics field", name)
		}
	}
	if t.Failed() {
		return
	}

	// Build two metrics whose numeric fields are distinct values (7 vs 3)
	// so sum (10) and max (7) are distinguishable, then Merge and check
	// each field against its declared semantics.
	fill := func(v int64) Metrics {
		m := NewMetrics("node")
		mv := reflect.ValueOf(&m).Elem()
		for i := 0; i < mt.NumField(); i++ {
			f := mv.Field(i)
			switch mt.Field(i).Name {
			case "Algorithm", "CandidatesByK", "Work":
				continue
			}
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(v)
			case reflect.Float64:
				f.SetFloat(float64(v))
			default:
				t.Fatalf("field %s has unhandled kind %s", mt.Field(i).Name, f.Kind())
			}
		}
		return m
	}
	a, b := fill(7), fill(3)
	a.AddCandidates(2, 7)
	b.AddCandidates(2, 3)
	b.AddCandidates(3, 5)
	a.Work.Charge(7, 1)
	b.Work.Charge(3, 1)

	a.Merge(&b)

	av := reflect.ValueOf(a)
	for i := 0; i < mt.NumField(); i++ {
		name := mt.Field(i).Name
		f := av.Field(i)
		var got float64
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			got = float64(f.Int())
		case reflect.Float64:
			got = f.Float()
		default:
			continue // Algorithm, CandidatesByK, Work handled below
		}
		switch semantics[name] {
		case sum:
			if got != 10 {
				t.Errorf("%s: Merge produced %v, semantics table says sum (want 10)", name, got)
			}
		case max:
			if got != 7 {
				t.Errorf("%s: Merge produced %v, semantics table says max (want 7)", name, got)
			}
		}
	}
	if a.Algorithm != "node" {
		t.Errorf("Algorithm mutated by Merge: %q", a.Algorithm)
	}
	if a.CandidatesByK[2] != 10 || a.CandidatesByK[3] != 5 {
		t.Errorf("CandidatesByK merged wrong: %v (want per-k sums 2:10 3:5)", a.CandidatesByK)
	}
	if a.Work.Units != 10 {
		t.Errorf("Work.Units = %d, want sum 10", a.Work.Units)
	}
}

// TestMergePeakHeldBytesSums pins the documented cross-node semantics of
// PeakHeldBytes specifically: nodes' resident structures coexist, so the
// cluster aggregate is the sum, NOT the max (the Merge doc comment used
// to claim "peak fields take the max", which was wrong for this field).
func TestMergePeakHeldBytesSums(t *testing.T) {
	a, b := NewMetrics("x"), NewMetrics("x")
	a.NoteHeldBytes(100)
	b.NoteHeldBytes(60)
	a.Merge(&b)
	if a.PeakHeldBytes != 160 {
		t.Fatalf("PeakHeldBytes after Merge = %d, want 160 (sum of coexisting nodes)", a.PeakHeldBytes)
	}
	if a.PeakCandidateBytes != 0 {
		t.Fatalf("PeakCandidateBytes = %d, want 0", a.PeakCandidateBytes)
	}
	c := NewMetrics("x")
	c.NoteCandidateBytes(50)
	d := NewMetrics("x")
	d.NoteCandidateBytes(80)
	c.Merge(&d)
	if c.PeakCandidateBytes != 80 {
		t.Fatalf("PeakCandidateBytes after Merge = %d, want max 80", c.PeakCandidateBytes)
	}
}
