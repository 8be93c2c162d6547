package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/rules"
	"pmihp/internal/serve"
	"pmihp/internal/streammine"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

const (
	streamWindowDays = 7
	// ruleMinConf is the confidence threshold of every rule set the
	// benchmark generates (stream steps and the serve-zipf index), the
	// default of streammine.Replay.
	ruleMinConf = 0.5
)

// streamRun is one replay of the corpus through a fresh miner, publishing
// into a long-lived server.
type streamRun struct {
	miner   *streammine.Miner
	corpus  int
	next    int // index of the next day batch
	batches [][]txdb.Transaction
	vocab   *text.Vocabulary
	srv     *serve.Server
}

// stepTimes are the instants between the calls one step makes.
type stepTimes struct {
	start, ingested, generated, swapped time.Time
	rules                               int
}

// step ingests the next day, generates the window's rules and swaps them
// into the server (a window that licenses no rules keeps the previous
// generation, as streammine.Replay does).
func (r *streamRun) step() (stepTimes, error) {
	var t stepTimes
	t.start = time.Now()
	if err := r.miner.Ingest(r.batches[r.next]); err != nil {
		return t, fmt.Errorf("step %d: ingest: %w", r.next, err)
	}
	r.next++
	t.ingested = time.Now()
	rs := rules.Generate(r.miner.Frequent(), r.miner.WindowDB().Len(), ruleMinConf)
	ws := rules.ToWordRules(rs, r.vocab.Word)
	t.generated = time.Now()
	t.rules = len(rs)
	if len(ws) > 0 {
		if _, err := r.srv.Swap(ws, "stream"); err != nil {
			return t, fmt.Errorf("step %d: swap: %w", r.next-1, err)
		}
	}
	t.swapped = time.Now()
	return t, nil
}

// dayBatches cuts a day-sorted database into one batch per publication day.
func dayBatches(db *txdb.DB) [][]txdb.Transaction {
	var out [][]txdb.Transaction
	for lo := 0; lo < db.Len(); {
		hi := lo
		for hi < db.Len() && db.DayOf(hi) == db.DayOf(lo) {
			hi++
		}
		b := make([]txdb.Transaction, 0, hi-lo)
		for i := lo; i < hi; i++ {
			b = append(b, db.Tx(i))
		}
		out = append(out, b)
		lo = hi
	}
	return out
}

// streamInput is one stream corpus: its day batches and vocabulary.
type streamInput struct {
	batches [][]txdb.Transaction
	vocab   *text.Vocabulary
}

// runStream is the stream-8wk workload: samples of corpus C replayed one
// publication day per step through streammine.Miner (7-day window), each
// step also generating rules and swapping them into a serve.Server. The
// run replays its corpora in turn. An op is one step with a full window;
// its frequent list must equal a from-scratch core.MinePMIHP of the same
// window, computed at setup.
func runStream(c config, o *outcome) error {
	preset := corpus.CorpusC(corpus.Harness)
	preset.Days = c.sizes.streamDays
	docs, err := corpusDocs(c.seed, "stream", preset, c.sizes.streamCorpora, c.sizes.streamDocs)
	if err != nil {
		return err
	}
	// Day order is the stream order; each vocabulary is built over its
	// whole corpus up front, as streammine.Replay does.
	for _, d := range docs {
		sort.SliceStable(d, func(i, j int) bool { return d[i].Day < d[j].Day })
	}
	scfg := streammine.Config{WindowDays: streamWindowDays, Opts: mining.Options{MinSupCount: 3, MaxK: 3}}
	fill := streamWindowDays - 1 // steps before the window is full

	// Set-up ends when the first full-window step can run: the databases
	// are built, the server exists, and the first window-1 days of the
	// first corpus are ingested with their rules published.
	var inputs []streamInput
	var run *streamRun
	for r := 0; r < c.sizes.setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		inputs = inputs[:0]
		for _, d := range docs {
			full, vocab := text.ToDB(d, nil)
			inputs = append(inputs, streamInput{batches: dayBatches(full), vocab: vocab})
		}
		t1 := time.Now()
		if len(inputs[0].batches) <= fill {
			return fmt.Errorf("stream corpus has %d days, need more than %d", len(inputs[0].batches), fill)
		}
		if run, err = newStreamRun(inputs, 0, serve.NewServer(serve.Config{}), scfg, fill); err != nil {
			return err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		o.layer.add("text.todb_s", 0, t1.Sub(t0).Seconds())
	}

	// References: every full window mined from scratch, as
	// streammine.VerifyStep does, over an append store fed the same days.
	refs := make([][][]byte, len(inputs))
	var nfreq, nrules int
	for k, in := range inputs {
		o.inputs["docs"] += int64(len(docs[k]))
		o.inputs["items"] += int64(in.vocab.Size())
		o.inputs["days"] += int64(len(in.batches))
		refs[k] = make([][]byte, len(in.batches))
		store := txdb.NewAppend(in.vocab.Size())
		for s, b := range in.batches {
			if err := store.Append(b); err != nil {
				return err
			}
			if s < fill {
				continue
			}
			win := store.SinceDay(b[0].Day - streamWindowDays + 1)
			res, err := core.MinePMIHP(win, core.PMIHPConfig{Nodes: clusterNodes}, scfg.Opts)
			if err != nil {
				return fmt.Errorf("reference for corpus %d step %d: %w", k, s, err)
			}
			refs[k][s] = streammine.RenderCounted(res.Result.Frequent)
			nfreq += len(res.Result.Frequent)
			nrules += len(rules.Generate(res.Result.Frequent, win.Len(), ruleMinConf))
		}
		if c.corrupt {
			corruptRefs(refs[k])
		}
	}
	o.inputs["corpora"] = int64(len(inputs))
	o.inputs["frequent_itemsets"] = int64(nfreq)
	o.inputs["rules"] = int64(nrules)

	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	runtime.GC()
	runSequential(c, o, len(inputs[0].batches)-fill, func(i int, on bool) (time.Duration, error) {
		if run.next == len(run.batches) {
			// The corpus is exhausted: replay the next one through a fresh
			// miner and server. Refilling the window is not part of any
			// op. A server retains every retired generation until a
			// metrics scrape prunes them, and nothing scrapes here, so a
			// fresh server per replay keeps the retained set — and the
			// peak heap — the same however many steps a run fits in.
			if c.trace {
				if err := traceState(o, run); err != nil {
					return 0, err
				}
			}
			if run, err = newStreamRun(inputs, (run.corpus+1)%len(inputs), serve.NewServer(serve.Config{}), scfg, fill); err != nil {
				return 0, err
			}
		}
		k, s := run.corpus, run.next
		t, err := run.step()
		d := t.swapped.Sub(t.start)
		if err != nil {
			return d, err
		}
		if !bytes.Equal(streammine.RenderCounted(run.miner.Frequent()), refs[k][s]) {
			return d, fmt.Errorf("corpus %d step %d: %w", k, s, errWrongOutput)
		}
		if on {
			t2 := time.Now()
			tr.record("op", i, t.start, t2)
			tr.record("streammine.Miner.Ingest", i, t.start, t.ingested)
			tr.record("rules.Generate", i, t.ingested, t.generated)
			tr.record("serve.Server.Swap", i, t.generated, t.swapped)
			tr.record("verify", i, t.swapped, t2)
			traceStep(o, run, t, k*len(run.batches)+s)
		}
		return d, nil
	})
	if !c.trace {
		return nil
	}
	for _, b := range tr.check() {
		o.check("%s", b)
	}
	return traceState(o, run)
}

// newStreamRun starts a replay of corpus k with a fresh miner and ingests
// the first fill days.
func newStreamRun(inputs []streamInput, k int, srv *serve.Server, cfg streammine.Config, fill int) (*streamRun, error) {
	in := inputs[k]
	m, err := streammine.New(in.vocab.Size(), cfg)
	if err != nil {
		return nil, err
	}
	r := &streamRun{miner: m, corpus: k, batches: in.batches, vocab: in.vocab, srv: srv}
	for r.next < fill {
		if _, err := r.step(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// traceStep adds one traced step's per-layer samples under its step index.
func traceStep(o *outcome, r *streamRun, t stepTimes, s int) {
	st := r.miner.LastStats()
	l := o.layer
	l.add("streammine.ingest_ms", s, msOf(t.ingested.Sub(t.start)))
	if st.NewTx > 0 {
		l.add("streammine.scan_ratio", s, float64(st.ScannedTx)/float64(st.NewTx))
	}
	l.add("streammine.window_tx", s, float64(st.WindowTx))
	l.add("rules.gen_ms", s, msOf(t.generated.Sub(t.ingested)))
	l.add("rules.count", s, float64(t.rules))
	l.add("serve.swap_ms", s, msOf(t.swapped.Sub(t.generated)))
	if g := r.srv.Generation(); g != nil {
		l.add("serve.index_mb", s, float64(g.Index.MemBytes())/1e6)
	}
}

// traceState adds the encoded size of a replay's miner state under its
// corpus. It runs between ops — at the end of a replay and of the run — so
// the encoding's cost lands on no traced op.
func traceState(o *outcome, r *streamRun) error {
	state, err := r.miner.EncodeState()
	if err != nil {
		return fmt.Errorf("corpus %d: encoding state: %w", r.corpus, err)
	}
	o.layer.add("streammine.state_mb", r.corpus, float64(len(state))/1e6)
	return nil
}
