package benchharness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/distmine"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/sched"
	"pmihp/internal/text"
)

// SchedSide is one arm of the static-vs-elastic scheduler comparison.
type SchedSide struct {
	Name       string `json:"name"`
	StartNodes int    `json:"start_nodes"`
	FinalNodes int    `json:"final_nodes"`
	// WallSeconds is real elapsed time for the session (admission to
	// completion), machine-dependent like ns/op — informational only,
	// since a CI box may not even have 8 cores to parallelize over.
	WallSeconds float64 `json:"wall_seconds"`
	// MaxBusySeconds is the final roster's modeled makespan: the largest
	// per-node busy time (mining plus poll service) under the
	// deterministic cost model — what wall-clock would be on a real
	// cluster with one workstation per node. This is the gated speed
	// metric.
	MaxBusySeconds float64 `json:"max_busy_seconds"`
	// Imbalance is the run's deterministic pass-imbalance ratio
	// max(busy)*n/sum(busy) over the final roster's modeled busy seconds.
	Imbalance float64 `json:"imbalance"`
	Resizes   int     `json:"resizes"`
}

// SchedCompareReport records the dynamic-vs-static scheduling experiment:
// the same skewed corpus mined once with a fixed equal-count 8-node
// partitioning (the paper's static layout) and once through the elastic
// scheduler, which starts on the same 8 workers and recruits the pool's
// idle ones at the first checkpoint barrier, re-splitting by estimated
// work. Both runs must produce itemsets byte-identical to the
// single-process reference.
type SchedCompareReport struct {
	Corpus  string    `json:"corpus"`
	Scale   string    `json:"scale"`
	Docs    int       `json:"docs"`
	Workers int       `json:"workers"`
	Static  SchedSide `json:"static"`
	Elastic SchedSide `json:"elastic"`
	// Speedup is static modeled makespan over elastic modeled makespan
	// (> 1 means the elastic scheduler wins).
	Speedup   float64 `json:"speedup"`
	Identical bool    `json:"identical"`
}

// WriteJSON writes the report, indented, to w.
func (r *SchedCompareReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// schedCompareWorkers is the pool size: the static arm leases
// schedCompareNodes of them and leaves the rest idle; the elastic arm
// starts identically and then grows onto the idle remainder.
const (
	schedCompareNodes   = 8
	schedCompareWorkers = 12
)

// RunSchedCompare mines the skewed corpus preset at the given scale under
// both arms on one in-process worker pool (real daemons on loopback) and
// returns the comparison. log, when non-nil, receives progress lines.
func RunSchedCompare(scale corpus.Scale, log io.Writer) (*SchedCompareReport, error) {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}
	docs, err := corpus.Generate(corpus.CorpusSkewed(scale))
	if err != nil {
		return nil, err
	}
	db, _ := text.ToDB(docs, nil)
	// Equal-count partitioning is the static arm's handicap on day-skewed
	// data; the elastic arm starts from the same cut and repairs it at the
	// barrier.
	opts := mining.Options{MinSupCount: 2, MaxK: 3, Partitioner: mining.PartitionByCount}

	ref, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 1}, opts)
	if err != nil {
		return nil, fmt.Errorf("benchharness: sched-compare reference: %w", err)
	}

	pool := sched.NewPool(sched.PoolOptions{})
	poolLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go pool.Serve(poolLn)
	defer pool.Close()

	var members []*sched.Membership
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	for i := 0; i < schedCompareWorkers; i++ {
		d := distmine.NewDaemon(distmine.DaemonOptions{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		go d.Serve(ln)
		m, err := sched.Join(poolLn.Addr().String(), ln.Addr().String(), sched.JoinOptions{})
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = pool.WaitMembers(ctx, schedCompareWorkers)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("benchharness: sched-compare pool: %w", err)
	}

	// A generous control-plane heartbeat: all the workers share this
	// process's cores, so under full mining load a 500ms cadence can
	// starve long enough to trip the 6x timeout and fail over a healthy
	// node mid-measurement.
	s := sched.NewScheduler(sched.SchedulerOptions{
		Pool:    pool,
		Cluster: distmine.ClusterConfig{HeartbeatInterval: 2 * time.Second},
	})
	defer s.Close()

	rep := &SchedCompareReport{
		Corpus:    "skewed",
		Scale:     scale.String(),
		Docs:      db.Len(),
		Workers:   schedCompareWorkers,
		Identical: true,
	}
	runArm := func(name string, growTo int) (SchedSide, error) {
		start := time.Now()
		sess, err := s.Submit(sched.SessionRequest{
			DB: db, Opts: opts, Nodes: schedCompareNodes, GrowTo: growTo, Label: name,
		})
		if err != nil {
			return SchedSide{}, err
		}
		res, err := sess.Wait()
		if err != nil {
			return SchedSide{}, fmt.Errorf("benchharness: sched-compare %s: %w", name, err)
		}
		if !sameFrequent(ref.Result.Frequent, res.Frequent) {
			rep.Identical = false
		}
		var maxBusy float64
		for _, ns := range res.Nodes {
			if ns.BusySeconds > maxBusy {
				maxBusy = ns.BusySeconds
			}
		}
		side := SchedSide{
			Name:           name,
			StartNodes:     schedCompareNodes,
			FinalNodes:     len(res.Nodes),
			WallSeconds:    time.Since(start).Seconds(),
			MaxBusySeconds: maxBusy,
			Imbalance:      res.Imbalance,
			Resizes:        res.Metrics.ElasticResizes,
		}
		logf("sched-compare %-8s %d->%d nodes, wall %6.2fs, modeled makespan %8.3fs, imbalance %.3f, resizes %d",
			name, side.StartNodes, side.FinalNodes, side.WallSeconds, side.MaxBusySeconds, side.Imbalance, side.Resizes)
		return side, nil
	}

	if rep.Static, err = runArm("static", 0); err != nil {
		return nil, err
	}
	if rep.Elastic, err = runArm("elastic", schedCompareWorkers); err != nil {
		return nil, err
	}
	if rep.Elastic.MaxBusySeconds > 0 {
		rep.Speedup = rep.Static.MaxBusySeconds / rep.Elastic.MaxBusySeconds
	}
	return rep, nil
}

// sameFrequent reports whether two frequent lists are byte-identical.
func sameFrequent(want, got []itemset.Counted) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if !want[i].Set.Equal(got[i].Set) || want[i].Count != got[i].Count {
			return false
		}
	}
	return true
}
