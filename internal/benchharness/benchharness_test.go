package benchharness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"pmihp/internal/corpus"
)

// goldenLine is one line of the figure-outcome golden file.
type goldenLine struct {
	Name string `json:"name"`
	Outcome
}

// TestFigureOutcomesGolden runs every figure workload once at small scale
// and compares each Outcome field with == against
// testdata/figure_outcomes.jsonl. The outcomes are exact functions of
// corpus and options, so any difference is a change to the cost model, a
// miner or the held-bytes accounting, never noise. After an intended one,
// regenerate the file with PMIHP_UPDATE_GOLDEN=1 and name the change in
// CHANGES.md.
func TestFigureOutcomesGolden(t *testing.T) {
	dbs, err := loadCorpora(corpus.Small)
	if err != nil {
		t.Fatal(err)
	}
	var got []goldenLine
	for _, w := range workloads() {
		o, err := w.run(dbs)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got = append(got, goldenLine{w.name, o})
	}

	golden := filepath.Join("testdata", "figure_outcomes.jsonl")
	if os.Getenv("PMIHP_UPDATE_GOLDEN") != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, l := range got {
			if err := enc.Encode(l); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d workloads)", golden, len(got))
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regen with PMIHP_UPDATE_GOLDEN=1): %v", err)
	}
	var want []goldenLine
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var l goldenLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("%s: %v", golden, err)
		}
		want = append(want, l)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d workloads, the table %d (regen with PMIHP_UPDATE_GOLDEN=1 if intentional)", golden, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name {
			t.Errorf("workload %d is %s, golden has %s", i, g.Name, w.Name)
			continue
		}
		for _, d := range diffOutcome(g.Outcome, w.Outcome) {
			t.Errorf("%s: %s (regen with PMIHP_UPDATE_GOLDEN=1 if intentional)", g.Name, d)
		}
	}
}

// diffOutcome names every field of got that differs from want.
func diffOutcome(got, want Outcome) []string {
	var d []string
	if got.SimSeconds != want.SimSeconds {
		d = append(d, fmt.Sprintf("sim_seconds %v, golden %v", got.SimSeconds, want.SimSeconds))
	}
	if got.GlobalCountSeconds != want.GlobalCountSeconds {
		d = append(d, fmt.Sprintf("global_count_seconds %v, golden %v", got.GlobalCountSeconds, want.GlobalCountSeconds))
	}
	if got.BytesHeld != want.BytesHeld {
		d = append(d, fmt.Sprintf("bytes_held %d, golden %d", got.BytesHeld, want.BytesHeld))
	}
	if got.WorkUnits != want.WorkUnits {
		d = append(d, fmt.Sprintf("work_units %d, golden %d", got.WorkUnits, want.WorkUnits))
	}
	if !maps.Equal(got.CandidatesByK, want.CandidatesByK) {
		d = append(d, fmt.Sprintf("candidates_by_k %v, golden %v", got.CandidatesByK, want.CandidatesByK))
	}
	if !maps.Equal(got.FrequentByK, want.FrequentByK) {
		d = append(d, fmt.Sprintf("frequent_by_k %v, golden %v", got.FrequentByK, want.FrequentByK))
	}
	return d
}

// BenchmarkFigures times every figure workload at small scale, one
// sub-benchmark each:
//
//	go test -run '^$' -bench Figures ./internal/benchharness/
func BenchmarkFigures(b *testing.B) {
	dbs, err := loadCorpora(corpus.Small)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workloads() {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.run(dbs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
