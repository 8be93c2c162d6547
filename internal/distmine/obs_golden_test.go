package distmine

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
)

// normalizePassEvents extracts the pass events from a trace, zeroes the
// run-dependent timing/traffic fields, and sorts by (k, node,
// partition). What remains — candidate counts, pruning deltas, trimmed
// items — is a deterministic function of the database and the mining
// options, so two runs of the same configuration must agree exactly.
func normalizePassEvents(evs []obs.Event) []obs.PassEvent {
	var out []obs.PassEvent
	for _, ev := range evs {
		if ev.Type != obs.TypePass {
			continue
		}
		p := *ev.Pass
		p.GenSeconds = 0
		p.ScanSeconds = 0
		p.ExchangeSeconds = 0
		p.WireBytes = 0
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.K != b.K {
			return a.K < b.K
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Partition < b.Partition
	})
	return out
}

func marshalPassEvents(evs []obs.PassEvent) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range evs {
		enc.Encode(ev)
	}
	return buf.Bytes()
}

// TestPassEventGolden pins the per-pass event stream of the paper's
// E3 Figure 6 PMIHP/8 configuration (corpus B, 8 nodes, minsup 2,
// maxk 3) three ways: the in-process simulator and an 8-daemon loopback
// cluster must emit identical streams modulo node attribution timing,
// and both must match the checked-in golden file. Regenerate with
// PMIHP_UPDATE_GOLDEN=1 after an intentional mining change.
func TestPassEventGolden(t *testing.T) {
	db := buildDB(t, corpus.CorpusB(corpus.Small))
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	const nodes = 8

	inproc := obs.New(obs.Config{Keep: true})
	simOpts := opts
	simOpts.Obs = inproc
	if _, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: nodes}, simOpts); err != nil {
		t.Fatal(err)
	}

	cluster := obs.New(obs.Config{Keep: true})
	addrs := startDaemons(t, nodes, DaemonOptions{Obs: cluster})
	if _, err := MineCluster(db, ClusterConfig{Addrs: addrs, Retry: fastRetry}, opts); err != nil {
		t.Fatal(err)
	}

	simEvents := normalizePassEvents(inproc.Events())
	clusterEvents := normalizePassEvents(cluster.Events())
	if len(simEvents) == 0 {
		t.Fatal("in-process run emitted no pass events")
	}

	simBytes := marshalPassEvents(simEvents)
	clusterBytes := marshalPassEvents(clusterEvents)
	if !bytes.Equal(simBytes, clusterBytes) {
		t.Errorf("in-process and loopback cluster pass-event streams differ:\n--- in-process ---\n%s--- cluster ---\n%s",
			simBytes, clusterBytes)
	}

	golden := filepath.Join("testdata", "e3fig6_pmihp8_pass_events.golden")
	if os.Getenv("PMIHP_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, simBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", golden, len(simEvents))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regen with PMIHP_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(simBytes, want) {
		t.Errorf("pass-event stream diverged from %s (regen with PMIHP_UPDATE_GOLDEN=1 if intentional):\n--- got ---\n%s--- want ---\n%s",
			golden, simBytes, want)
	}
}
