package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"pmihp/internal/benchharness"
	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/streammine"
	"pmihp/internal/txdb"
)

// runSim is the sim-8day workload: core.MinePMIHP with 8 simulated nodes
// (the default pmihp-mine -algo pmihp path) on small samples of the
// paper's 8-day corpus B. An op is one run; its frequent sets must equal
// core.MineMIHP's and its simulated seconds must equal those of the first
// op on the same corpus.
func runSim(c config, o *outcome) error {
	docs, err := corpusDocs(c.seed, "sim", corpus.CorpusB(corpus.Harness), c.sizes.simCorpora, c.sizes.simDocs)
	if err != nil {
		return err
	}
	opts := mining.Options{MinSupCount: 3, MaxK: 3}
	pcfg := core.PMIHPConfig{Nodes: clusterNodes}

	var dbs []*txdb.DB
	for r := 0; r < c.sizes.setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		dbs = toDBs(docs)
		d := time.Since(t0).Seconds()
		o.setup = append(o.setup, d)
		o.layer.add("text.todb_s", 0, d)
	}

	refs := make([][]byte, len(dbs))
	simS := make([]float64, len(dbs))
	nfreq := 0
	for j, db := range dbs {
		ref, err := core.MineMIHP(db, opts)
		if err != nil {
			return fmt.Errorf("reference for corpus %d: %w", j, err)
		}
		refs[j] = streammine.RenderCounted(ref.Frequent)
		nfreq += len(ref.Frequent)
	}
	stampDBs(o, dbs, nfreq)
	if c.corrupt {
		corruptRefs(refs)
	}

	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	runtime.GC()
	runSequential(c, o, len(dbs), func(i int, on bool) (time.Duration, error) {
		j := i % len(dbs)
		op := opts
		var rec *obs.Recorder
		if on {
			rec = obs.New(obs.Config{Keep: true})
			op.Obs = rec
		}
		t0 := time.Now()
		res, err := core.MinePMIHP(dbs[j], pcfg, op)
		t1 := time.Now()
		d := t1.Sub(t0)
		if err != nil {
			return d, err
		}
		if !bytes.Equal(streammine.RenderCounted(res.Result.Frequent), refs[j]) {
			return d, fmt.Errorf("corpus %d: %w", j, errWrongOutput)
		}
		// The first op on a corpus fixes the simulated seconds every later
		// op on it must reproduce (to the ULP wobble of the node clocks).
		if simS[j] == 0 {
			simS[j] = res.TotalSeconds
		}
		if rel := math.Abs(res.TotalSeconds-simS[j]) / simS[j]; !(rel <= 1e-9) {
			return d, fmt.Errorf("corpus %d: simulated %v s, first op %v s", j, res.TotalSeconds, simS[j])
		}
		if on {
			t2 := time.Now()
			tr.record("op", i, t0, t2)
			tr.record("core.MinePMIHP", i, t0, t1)
			tr.record("verify", i, t1, t2)
			traceSim(o, rec.Events(), res, j)
		}
		return d, nil
	})
	if c.trace {
		for _, b := range tr.check() {
			o.check("%s", b)
		}
		for j, db := range dbs {
			perNode := max(opts.Workers()/clusterNodes, 1)
			replayPass1(o, db, j, opts.MinSupCount, perNode, true)
		}
	}
	return nil
}

// traceSim reconciles one traced simulator run's events with its metrics
// (benchharness.VerifyTrace) and adds its per-layer samples under input j.
func traceSim(o *outcome, events []obs.Event, res *core.ParallelResult, j int) {
	m := &res.Result.Metrics
	for _, b := range benchharness.VerifyTrace(events, m) {
		o.check("corpus %d: %s", j, b)
	}
	addPassSamples(o, obs.Summarize(events), j)
	l := o.layer
	l.add("core.held_mb", j, float64(m.PeakHeldBytes)/1e6)
	l.add("cluster.sim_s", j, res.TotalSeconds)
	l.add("cluster.modeled_mb", j, float64(m.BytesSent)/1e6)
}

// addPassSamples adds the counting layers' samples of one run, from its
// pass and poll events: passes, scan seconds, candidates counted per k,
// candidate sets served to polls, and the share of candidates the THT
// bound pruned before counting.
func addPassSamples(o *outcome, s obs.Summary, j int) {
	var counted, polled int64
	for _, n := range s.CandidatesByK {
		counted += n
	}
	for _, n := range s.PolledByK {
		polled += n
	}
	l := o.layer
	l.add("core.passes", j, float64(s.Passes))
	l.add("core.scan_s", j, s.ScanSeconds)
	l.add("core.cand_k2", j, float64(s.CandidatesByK[2]))
	l.add("core.cand_k3", j, float64(s.CandidatesByK[3]))
	l.add("core.polled_sets", j, float64(polled))
	if s.PrunedTHT+counted > 0 {
		l.add("tht.prune_ratio", j, float64(s.PrunedTHT)/float64(s.PrunedTHT+counted))
	}
}
