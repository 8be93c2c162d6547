package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/distmine"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/streammine"
	"pmihp/internal/text"
	"pmihp/internal/tht"
	"pmihp/internal/txdb"
)

const clusterNodes = 8

// daemonSet is one loopback cluster: a node daemon per logical node, each
// on its own listener, all in this process.
type daemonSet struct {
	addrs []string
	lns   []net.Listener
	recs  []*obs.Recorder // per daemon; nil when untraced
	done  chan struct{}   // closed when every Serve loop has returned
	seen  []int           // events already read from each recorder
}

// bootDaemons starts n daemons; traced daemons each get a Keep-mode
// recorder through DaemonOptions.Obs.
func bootDaemons(n int, traced bool) (*daemonSet, error) {
	s := &daemonSet{done: make(chan struct{}), seen: make([]int, n)}
	served := make(chan struct{}, n) // one send per Serve loop
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.closeN(served, i)
			return nil, err
		}
		opt := distmine.DaemonOptions{}
		if traced {
			rec := obs.New(obs.Config{Keep: true})
			s.recs = append(s.recs, rec)
			opt.Obs = rec
		}
		d := distmine.NewDaemon(opt)
		s.lns = append(s.lns, ln)
		s.addrs = append(s.addrs, ln.Addr().String())
		go func() {
			d.Serve(ln) // returns once the listener closes
			served <- struct{}{}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			<-served
		}
		close(s.done)
	}()
	return s, nil
}

// closeN closes the first n listeners and waits for their Serve loops.
func (s *daemonSet) closeN(served chan struct{}, n int) {
	for _, ln := range s.lns[:n] {
		ln.Close()
	}
	for i := 0; i < n; i++ {
		<-served
	}
}

// close stops the daemons and waits until every Serve loop has returned.
// Sessions end with MineCluster, so no session goroutine outlives it.
func (s *daemonSet) close() {
	for _, ln := range s.lns {
		ln.Close()
	}
	<-s.done
}

// newEvents returns the events daemon i recorded since the last call.
func (s *daemonSet) newEvents(i int) []obs.Event {
	ev := s.recs[i].Events()
	out := ev[s.seen[i]:]
	s.seen[i] = len(ev)
	return out
}

// corpusDocs generates n corpora of the given preset and size, each from
// its own seed derived from the run seed.
func corpusDocs(seed int64, what string, preset corpus.Config, n, docs int) ([][]text.Document, error) {
	out := make([][]text.Document, n)
	for j := range out {
		cfg := preset
		cfg.Docs = docs
		cfg.Seed = inputSeed(seed, what, j)
		d, err := corpus.Generate(cfg)
		if err != nil {
			return nil, err
		}
		out[j] = d
	}
	return out, nil
}

func toDBs(docs [][]text.Document) []*txdb.DB {
	dbs := make([]*txdb.DB, len(docs))
	for j, d := range docs {
		dbs[j], _ = text.ToDB(d, nil)
	}
	return dbs
}

// corruptRefs flips one byte of every reference rendering.
func corruptRefs(refs [][]byte) {
	for _, r := range refs {
		if len(r) > 0 {
			r[0] ^= 0x55
		}
	}
}

// stampDBs records the inputs' sizes and the references' itemset counts.
func stampDBs(o *outcome, dbs []*txdb.DB, frequent int) {
	o.inputs["corpora"] = int64(len(dbs))
	for _, db := range dbs {
		o.inputs["docs"] += int64(db.Len())
		o.inputs["items"] += int64(db.NumItems())
	}
	o.inputs["frequent_itemsets"] = int64(frequent)
}

// runTCP is the tcp-8wk workload: distmine.MineCluster sessions over an
// 8-daemon loopback cluster, one at a time, on small samples of the
// 8-week corpus C. An op is one session; its frequent list must be
// byte-identical to core.MinePMIHP at 8 nodes.
func runTCP(c config, o *outcome) error {
	docs, err := corpusDocs(c.seed, "tcp", corpus.CorpusC(corpus.Harness), c.sizes.tcpCorpora, c.sizes.tcpDocs)
	if err != nil {
		return err
	}
	// One counting goroutine per node: eight daemons share this process's
	// cores, as the simulator's nodes do.
	opts := mining.Options{MinSupCount: 3, MaxK: 2, IntraNodeWorkers: 1}

	var dbs []*txdb.DB
	var plain *daemonSet
	for r := 0; r < c.sizes.setupReps; r++ {
		if plain != nil {
			plain.close()
		}
		runtime.GC()
		t0 := time.Now()
		dbs = toDBs(docs)
		t1 := time.Now()
		if plain, err = bootDaemons(clusterNodes, false); err != nil {
			return err
		}
		t2 := time.Now()
		o.setup = append(o.setup, t2.Sub(t0).Seconds())
		o.layer.add("text.todb_s", 0, t1.Sub(t0).Seconds())
		o.layer.add("distmine.boot_ms", 0, msOf(t2.Sub(t1)))
	}
	defer plain.close()
	var traced *daemonSet
	if c.trace {
		if traced, err = bootDaemons(clusterNodes, true); err != nil {
			return err
		}
		defer traced.close()
	}

	refs := make([][]byte, len(dbs))
	nfreq := 0
	for j, db := range dbs {
		res, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: clusterNodes}, opts)
		if err != nil {
			return fmt.Errorf("reference for corpus %d: %w", j, err)
		}
		refs[j] = streammine.RenderCounted(res.Result.Frequent)
		nfreq += len(res.Result.Frequent)
	}
	stampDBs(o, dbs, nfreq)
	if c.corrupt {
		corruptRefs(refs)
	}

	session := func(j int, set *daemonSet) (*distmine.Result, time.Duration, error) {
		t0 := time.Now()
		res, err := distmine.MineCluster(dbs[j], distmine.ClusterConfig{Addrs: set.addrs}, opts)
		return res, time.Since(t0), err
	}
	// Warm up: the first sessions on fresh daemons pay connection and
	// allocator warm-up that later sessions do not.
	for j := 0; j < min(len(dbs), 4); j++ {
		for _, set := range []*daemonSet{plain, traced} {
			if set == nil {
				continue
			}
			if _, _, err := session(j, set); err != nil {
				return fmt.Errorf("warm-up session: %w", err)
			}
			if set.recs != nil {
				for i := range set.recs {
					set.newEvents(i)
				}
			}
		}
	}

	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	runtime.GC()
	runSequential(c, o, len(dbs), func(i int, on bool) (time.Duration, error) {
		j := i % len(dbs)
		set := plain
		if on {
			set = traced
		}
		t0 := time.Now()
		res, d, err := session(j, set)
		t1 := time.Now()
		if err != nil {
			return d, err
		}
		if !bytes.Equal(streammine.RenderCounted(res.Frequent), refs[j]) {
			return d, fmt.Errorf("corpus %d: %w", j, errWrongOutput)
		}
		if on {
			t2 := time.Now()
			tr.record("op", i, t0, t2)
			tr.record("distmine.MineCluster", i, t0, t1)
			tr.record("verify", i, t1, t2)
			traceSession(o, set, res, d, j)
		}
		return d, nil
	})
	if c.trace {
		for _, b := range tr.check() {
			o.check("%s", b)
		}
		for j, db := range dbs {
			replayPass1(o, db, j, opts.MinSupCount, 1, false)
		}
	}
	return nil
}

// phaseSpans maps the daemons' collective span names onto the
// NodeStats.PhaseSeconds slots that reuse the same measurement.
var phaseSpans = map[string]int{
	"exchange:item-counts": 0,
	"exchange:tht":         1,
	"poll:resolve":         2,
	"exchange:final":       3,
}

// traceSession reads one traced session's events back from the daemons'
// recorders, reconciles them with the session's result, and adds its
// per-layer samples under input j.
func traceSession(o *outcome, set *daemonSet, res *distmine.Result, wall time.Duration, j int) {
	var all []obs.Event
	var cascade, held float64
	for i := range set.recs {
		ev := set.newEvents(i)
		all = append(all, ev...)
		got := [4]int{}
		for _, e := range ev {
			if e.Span == nil {
				continue
			}
			k, ok := phaseSpans[e.Span.Name]
			if !ok {
				continue
			}
			node := e.Span.Node
			if node < 0 || node >= len(res.Nodes) {
				o.check("daemon %d: span %s for unknown node %d", i, e.Span.Name, node)
				continue
			}
			got[k]++
			if want := res.Nodes[node].PhaseSeconds[k]; e.Span.Seconds != want {
				o.check("node %d: span %s = %v s, PhaseSeconds[%d] = %v s", node, e.Span.Name, e.Span.Seconds, k, want)
			}
		}
		for name, k := range phaseSpans {
			if got[k] != 1 {
				o.check("daemon %d: %d %s spans in one session, want 1", i, got[k], name)
			}
		}
		snap := set.recs[i].Snap()
		for _, v := range snap.NodeGauges["tht_cascade_bytes"] {
			cascade = max(cascade, float64(v))
		}
		for _, v := range snap.NodeGauges["peak_held_bytes"] {
			held += float64(v)
		}
	}

	var wireBytes, wireMsgs, wireRetries int64
	var phaseMax, phaseMin [4]float64
	slowest := 0.0
	for i, n := range res.Nodes {
		wireBytes += n.Wire.BytesSent
		wireMsgs += n.Wire.MessagesSent
		wireRetries += n.Wire.Retries
		sum := 0.0
		for k, s := range n.PhaseSeconds {
			if i == 0 || s > phaseMax[k] {
				phaseMax[k] = s
			}
			if i == 0 || s < phaseMin[k] {
				phaseMin[k] = s
			}
			sum += s
		}
		slowest = max(slowest, sum)
		if sum > wall.Seconds() {
			o.check("node %d: phases sum to %v s, longer than its session (%v)", i, sum, wall)
		}
	}
	wait := 0.0
	for k := range phaseMax {
		wait += phaseMax[k] - phaseMin[k]
	}

	addPassSamples(o, obs.Summarize(all), j)
	l := o.layer
	l.add("core.held_mb", j, held/1e6)
	l.add("tht.cascade_mb", j, cascade/1e6)
	l.add("transport.wire_mb", j, float64(wireBytes)/1e6)
	l.add("transport.msgs", j, float64(wireMsgs))
	l.add("transport.retries", j, float64(wireRetries))
	l.add("distmine.item_counts_s", j, phaseMax[0])
	l.add("distmine.tht_exchange_s", j, phaseMax[1])
	l.add("distmine.poll_s", j, phaseMax[2])
	l.add("distmine.final_s", j, phaseMax[3])
	l.add("distmine.wait_s", j, wait)
	l.add("distmine.local_s", j, wall.Seconds()-slowest)
	l.add("distmine.imbalance", j, res.Imbalance)
}

// replayPass1 re-runs the public pieces of a session's first pass on the
// input it mined, where the program exposes no timing of its own: the
// chronological split, every node's local THT build (summed over nodes)
// and every node's poll-counter posting build. With cascade set it also
// assembles the global THT cascade and reports its size.
func replayPass1(o *outcome, db *txdb.DB, j, minCount, workers int, cascade bool) {
	const reps = 3
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		parts := db.SplitChronological(clusterNodes)
		o.layer.add("txdb.split_ms", j, msOf(time.Since(t0)))

		entries := mining.Options{}.WithDefaults().THTEntries / clusterNodes
		locals := make([]*tht.Local, len(parts))
		global := make([]int, db.NumItems())
		var build time.Duration
		for i, p := range parts {
			t := time.Now()
			local, counts := tht.BuildLocalShards(p, entries, workers)
			build += time.Since(t)
			locals[i] = local
			for it, n := range counts {
				global[it] += n
			}
		}
		o.layer.add("tht.build_ms", j, msOf(build))
		if cascade && r == 0 {
			freq, _, _ := core.FrequentItems(global, minCount)
			for _, l := range locals {
				l.Retain(func(it itemset.Item) bool { return freq[it] })
				l.BuildMasks()
			}
			o.layer.add("tht.cascade_mb", j, float64(tht.NewGlobal(locals).MemBytes())/1e6)
		}

		var pcBuild time.Duration
		for _, p := range parts {
			probe := firstItem(p)
			if probe == nil {
				continue
			}
			var m mining.Metrics
			t := time.Now()
			pc := core.NewPollCounter(p, workers, 0)
			pc.Count(probe, &m) // the posting file is built at the first count
			pcBuild += time.Since(t)
		}
		o.layer.add("core.pollcounter_build_ms", j, msOf(pcBuild))
	}
}

// firstItem returns a one-item set present in db, nil when db has none.
func firstItem(db *txdb.DB) itemset.Itemset {
	for i := 0; i < db.Len(); i++ {
		if items := db.ItemsOf(i); len(items) > 0 {
			return items[:1]
		}
	}
	return nil
}
