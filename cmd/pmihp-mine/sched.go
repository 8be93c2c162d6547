package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/distmine"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/sched"
	"pmihp/internal/txdb"
)

// addSchedFlags registers the sched subcommand's own flags and returns
// its miner, the multi-tenant scheduler: it boots a worker pool
// (pmihp-node processes register with -pool), waits for the requested
// quorum, then submits -sessions concurrent mining sessions over the
// same corpus through one sched.Scheduler. Every session's frequent list
// is checked byte-for-byte against an in-process core.MinePMIHP
// reference — including sessions that resized mid-run — so a passing
// exit code certifies multi-tenancy did not change a single answer. The
// first session's result goes to the report tail.
func addSchedFlags(fs *flag.FlagSet, clusterConfig func(*obs.Recorder) distmine.ClusterConfig) miner {
	listen := fs.String("listen", "127.0.0.1:0", "boot the worker pool on this address (pmihp-node workers register with -pool)")
	wait := fs.Int("wait", 0, "wait for this many workers to join the pool before submitting sessions (0 = don't wait)")
	sessions := fs.Int("sessions", 1, "concurrent sessions to submit; each is verified byte-identical to a single-process reference")
	nodes := fs.Int("nodes", 4, "logical nodes per session at admission")
	growTo := fs.Int("grow", 0, "elastically scale each session from -nodes up to this many logical nodes at the first checkpoint barrier (0 = no mid-run resize)")
	return func(out io.Writer, db *txdb.DB, opts mining.Options) (*mining.Result, error) {
		cfg := clusterConfig(opts.Obs)
		pool := sched.NewPool(sched.PoolOptions{Logf: cfg.Logf})
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return nil, fmt.Errorf("scheduler pool: %w", err)
		}
		go pool.Serve(ln)
		defer pool.Close()
		fmt.Fprintf(out, "scheduler pool listening on %s\n", ln.Addr().String())

		if *wait > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			err := pool.WaitMembers(ctx, *wait)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("waiting for %d pool workers: %w", *wait, err)
			}
			fmt.Fprintf(out, "pool quorum reached: %d workers\n", len(pool.Members()))
		}

		// The answer every session must reproduce exactly. The reference node
		// count is irrelevant: PMIHP's output is partition-independent.
		ref, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 1}, opts)
		if err != nil {
			return nil, fmt.Errorf("reference mine: %w", err)
		}

		s := sched.NewScheduler(sched.SchedulerOptions{Pool: pool, Cluster: cfg, Logf: cfg.Logf})
		defer s.Close()

		type outcome struct {
			sess *sched.Session
			res  *distmine.Result
			err  error
			wall time.Duration
		}
		outcomes := make([]outcome, *sessions)
		var wg sync.WaitGroup
		for i := 0; i < *sessions; i++ {
			sess, err := s.Submit(sched.SessionRequest{
				DB:     db,
				Opts:   opts,
				Nodes:  *nodes,
				GrowTo: *growTo,
				Label:  fmt.Sprintf("session-%d", i+1),
			})
			if err != nil {
				return nil, err
			}
			outcomes[i].sess = sess
			wg.Add(1)
			go func(o *outcome) {
				defer wg.Done()
				<-o.sess.Admitted()
				start := time.Now()
				o.res, o.err = o.sess.Wait()
				o.wall = time.Since(start)
			}(&outcomes[i])
		}
		wg.Wait()

		for i := range outcomes {
			o := &outcomes[i]
			if o.err != nil {
				return nil, fmt.Errorf("session %d: %w", i+1, o.err)
			}
			if msg := frequentMismatch(ref.Result.Frequent, o.res.Frequent); msg != "" {
				return nil, fmt.Errorf("session %d: result differs from reference: %s", i+1, msg)
			}
			fmt.Fprintf(out, "session %d: admitted #%d, %d final nodes, wall %6.2fs, imbalance %.3f, resizes %d, failovers %d\n",
				i+1, o.sess.AdmitOrder(), len(o.res.Nodes), o.wall.Seconds(),
				o.res.Imbalance, o.res.Metrics.ElasticResizes, o.res.Metrics.Failovers)
		}
		fmt.Fprintf(out, "all %d sessions byte-identical to the single-process reference\n", *sessions)

		first := outcomes[0].res
		return &mining.Result{Frequent: first.Frequent, Metrics: first.Metrics}, nil
	}
}

// frequentMismatch reports the first difference between two frequent
// lists ("" when identical).
func frequentMismatch(want, got []itemset.Counted) string {
	if len(want) != len(got) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !want[i].Set.Equal(got[i].Set) || want[i].Count != got[i].Count {
			return fmt.Sprintf("entry %d: %v/%d, want %v/%d",
				i, got[i].Set, got[i].Count, want[i].Set, want[i].Count)
		}
	}
	return ""
}
