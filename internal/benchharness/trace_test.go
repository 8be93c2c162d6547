package benchharness

import (
	"fmt"
	"math"
	"net"
	"testing"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/countdist"
	"pmihp/internal/distmine"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

func traceDB(t *testing.T) *txdb.DB {
	t.Helper()
	docs, err := corpus.Generate(corpus.CorpusB(corpus.Small))
	if err != nil {
		t.Fatal(err)
	}
	db, _ := text.ToDB(docs, nil)
	return db
}

// TestVerifyTrace pins the acceptance invariant of the trace format:
// replaying the event stream of a run reproduces the run's own metrics
// — pass counts, per-k candidate totals (mined plus poll-served), and,
// for measured cluster runs, the wire time.
func TestVerifyTrace(t *testing.T) {
	db := traceDB(t)
	opts := mining.Options{MinSupCount: 2, MaxK: 3}

	t.Run("pmihp-simulated", func(t *testing.T) {
		rec := obs.New(obs.Config{Keep: true})
		o := opts
		o.Obs = rec
		r, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 8}, o)
		if err != nil {
			t.Fatal(err)
		}
		if bad := VerifyTrace(rec.Events(), &r.Result.Metrics); len(bad) != 0 {
			t.Fatalf("trace does not replay to the run's metrics:\n%v", bad)
		}
		if bad := VerifyScheduleGauges(rec.Snap(), r); len(bad) != 0 {
			t.Fatalf("load gauges do not reconcile with the run's report:\n%v", bad)
		}
	})

	t.Run("countdist", func(t *testing.T) {
		rec := obs.New(obs.Config{Keep: true})
		o := opts
		o.Obs = rec
		r, err := countdist.Mine(db, countdist.Config{Nodes: 8}, o)
		if err != nil {
			t.Fatal(err)
		}
		if bad := VerifyTrace(rec.Events(), &r.Result.Metrics); len(bad) != 0 {
			t.Fatalf("trace does not replay to the run's metrics:\n%v", bad)
		}
	})

	t.Run("distmine", func(t *testing.T) {
		// An 8-daemon loopback cluster measures its wire time. Its result
		// carries only the wire totals, so the trace's passes and candidates
		// are held to the simulator's run on the same inputs: one protocol,
		// the same counts.
		rec := obs.New(obs.Config{Keep: true})
		addrs := make([]string, 8)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			go distmine.NewDaemon(distmine.DaemonOptions{Obs: rec}).Serve(ln)
			addrs[i] = ln.Addr().String()
		}
		r, err := distmine.MineCluster(db, distmine.ClusterConfig{Addrs: addrs}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics.WireSeconds <= 0 {
			t.Fatalf("cluster run measured no wire time: %+v", r.Metrics)
		}
		sim, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 8}, opts)
		if err != nil {
			t.Fatal(err)
		}
		m := sim.Result.Metrics
		m.WireSeconds = r.Metrics.WireSeconds
		if bad := VerifyTrace(rec.Events(), &m); len(bad) != 0 {
			t.Fatalf("trace does not replay to the run's metrics:\n%v", bad)
		}
	})

	t.Run("detects-drift", func(t *testing.T) {
		rec := obs.New(obs.Config{Keep: true})
		o := opts
		o.Obs = rec
		r, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 2}, o)
		if err != nil {
			t.Fatal(err)
		}
		m := r.Result.Metrics
		m.Passes++
		m.AddCandidates(2, 5)
		bad := VerifyTrace(rec.Events(), &m)
		if len(bad) != 2 {
			t.Fatalf("tampered metrics produced %d discrepancies, want 2: %v", len(bad), bad)
		}

		// Shifting one node's charged work must break the busy/idle gauges
		// (and usually the imbalance ratio) the run published.
		r.Nodes[0].Metrics.Work.Charge(1, mining.UnitsPerSecond)
		if bad := VerifyScheduleGauges(rec.Snap(), r); len(bad) == 0 {
			t.Fatal("tampered node work reconciled cleanly against the load gauges")
		}
	})
}

// VerifyScheduleGauges reconciles the load gauges a PMIHP run publishes on
// its recorder — per-node busy_seconds and idle_seconds, and the
// cluster-level pass_imbalance_ratio — against the run's own report, and
// returns the discrepancies, empty when they agree. Busy is a node's
// charged work (Metrics.Work), idle is the remainder of the run's total
// simulated time (every node's clock ends at the final all-gather, so the
// gap is exactly the time spent waiting on collectives), and the
// imbalance ratio is max(busy)·nodes/sum(busy) — 1.0 for a perfectly
// balanced pass schedule.
func VerifyScheduleGauges(s obs.Snapshot, r *core.ParallelResult) []string {
	const tol = 1e-9
	var bad []string
	busyG := s.NodeFloats["busy_seconds"]
	idleG := s.NodeFloats["idle_seconds"]
	var maxBusy, sumBusy float64
	for _, node := range r.Nodes {
		busy := node.Metrics.Work.Seconds()
		if maxBusy < busy {
			maxBusy = busy
		}
		sumBusy += busy
		got, ok := busyG[node.Node]
		if !ok {
			bad = append(bad, fmt.Sprintf("busy_seconds: node %d missing from gauges", node.Node))
		} else if math.Abs(got-busy) > tol+tol*busy {
			bad = append(bad, fmt.Sprintf("busy_seconds: node %d gauge %v, metrics charge %v", node.Node, got, busy))
		}
		idle := r.TotalSeconds - busy
		if idle < 0 {
			idle = 0
		}
		if got, ok := idleG[node.Node]; !ok {
			bad = append(bad, fmt.Sprintf("idle_seconds: node %d missing from gauges", node.Node))
		} else if math.Abs(got-idle) > tol+tol*r.TotalSeconds {
			bad = append(bad, fmt.Sprintf("idle_seconds: node %d gauge %v, run implies %v", node.Node, got, idle))
		}
	}
	if sumBusy > 0 {
		want := maxBusy * float64(len(r.Nodes)) / sumBusy
		if got, ok := s.FloatGauges["pass_imbalance_ratio"]; !ok {
			bad = append(bad, "pass_imbalance_ratio: gauge missing")
		} else if math.Abs(got-want) > tol+tol*want {
			bad = append(bad, fmt.Sprintf("pass_imbalance_ratio: gauge %v, node charges imply %v", got, want))
		}
	}
	return bad
}
