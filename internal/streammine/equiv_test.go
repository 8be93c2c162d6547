package streammine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/rules"
	"pmihp/internal/search"
	"pmihp/internal/serve"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// The equivalence harness: every test here holds the windowed miner to
// byte-identity with a from-scratch mine of the same window — itemsets,
// counts, order, and (for the serving path) rendered expansions. The
// unweighted gate runs against core.MinePMIHP (and, for fuzzed batches,
// mining.BruteForce, which shares no counting code with core); the decay
// gate runs against weightedReference, a naive level-wise miner with no
// core kernels.

// replayScenario is one window-size × batch-shape × decay configuration.
type replayScenario struct {
	name    string
	corpus  corpus.Config
	window  int
	batch   int
	decay   float64
	opts    mining.Options
	crashAt int
}

func scenarios() []replayScenario {
	return []replayScenario{
		{name: "window3-batch1-count", corpus: corpus.CorpusB(corpus.Small),
			window: 3, batch: 1, opts: mining.Options{MinSupCount: 3, MaxK: 3}},
		{name: "window1-batch1-count", corpus: corpus.CorpusB(corpus.Small),
			window: 1, batch: 1, opts: mining.Options{MinSupCount: 3, MaxK: 3}},
		{name: "window5-batch2-frac", corpus: corpus.CorpusB(corpus.Small),
			window: 5, batch: 2, opts: mining.Options{MinSupFrac: 0.06, MaxK: 3}},
		{name: "window4-batch3-corpusA", corpus: corpus.CorpusA(corpus.Small),
			window: 4, batch: 3, opts: mining.Options{MinSupCount: 4, MaxK: 3}},
		{name: "unbounded-batch2-count", corpus: corpus.CorpusB(corpus.Small),
			window: 0, batch: 2, opts: mining.Options{MinSupCount: 4, MaxK: 3}},
		{name: "window3-batch1-decay06", corpus: corpus.CorpusB(corpus.Small),
			window: 3, batch: 1, decay: 0.6, opts: mining.Options{MinSupCount: 3, MaxK: 3}},
		{name: "window4-batch2-decay09-frac", corpus: corpus.CorpusB(corpus.Small),
			window: 4, batch: 2, decay: 0.9, opts: mining.Options{MinSupFrac: 0.05, MaxK: 3}},
		{name: "crash-resume-step4", corpus: corpus.CorpusB(corpus.Small),
			window: 3, batch: 1, opts: mining.Options{MinSupCount: 3, MaxK: 3}, crashAt: 4},
		{name: "crash-resume-decay", corpus: corpus.CorpusB(corpus.Small),
			window: 3, batch: 1, decay: 0.6, opts: mining.Options{MinSupCount: 3, MaxK: 3}, crashAt: 3},
	}
}

// TestReplayEquivalence drives every scenario through the replay harness
// with the per-step gate on: after each ingest the miner's frequent
// sets must be byte-identical to a from-scratch mine of the window, and a
// crash-and-resume through the PMCK checkpoint must not perturb a single
// byte.
func TestReplayEquivalence(t *testing.T) {
	for _, sc := range scenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			docs := corpus.MustGenerate(sc.corpus)
			cfg := ReplayConfig{
				WindowDays:  sc.window,
				Decay:       sc.decay,
				Opts:        sc.opts,
				BatchDays:   sc.batch,
				VerifyNodes: 3,
			}
			if sc.crashAt > 0 {
				cfg.CheckpointPath = filepath.Join(t.TempDir(), "stream.ckpt")
				cfg.CrashAfterStep = sc.crashAt
			}
			report, err := Replay(docs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !report.AllEquivalent || len(report.Steps) == 0 {
				t.Fatalf("report not equivalent: %+v", report)
			}
			wantSteps := (sc.corpus.Days + sc.batch - 1) / sc.batch
			if len(report.Steps) != wantSteps {
				t.Fatalf("%d steps, want %d", len(report.Steps), wantSteps)
			}
			mined := 0
			for _, sr := range report.Steps {
				if !sr.Verified || !sr.Equivalent {
					t.Fatalf("step %d not verified equivalent: %+v", sr.Step, sr)
				}
				mined += sr.Frequent
			}
			if mined == 0 {
				t.Fatal("no step mined any frequent itemset; the gate proved nothing")
			}
			if sc.crashAt > 0 {
				if !report.Steps[sc.crashAt-1].Resumed {
					t.Fatalf("step %d did not resume from checkpoint", sc.crashAt)
				}
				// The gate already proved the resumed state equivalent to
				// from-scratch; also pin the whole run's shape against an
				// uninterrupted replay.
				clean := cfg
				clean.CheckpointPath, clean.CrashAfterStep = "", 0
				cleanReport, err := Replay(docs, clean)
				if err != nil {
					t.Fatal(err)
				}
				for i, sr := range report.Steps {
					cs := cleanReport.Steps[i]
					if sr.Frequent != cs.Frequent || sr.Rules != cs.Rules || sr.WindowTx != cs.WindowTx {
						t.Fatalf("step %d diverges from uninterrupted run: %+v vs %+v", sr.Step, sr, cs)
					}
				}
			}
		})
	}
}

// TestServedExpansionEquivalence closes the loop through the serving
// layer: at every step the rules the miner produced are installed as a
// serving generation, and the served expansions must equal — as JSON
// bytes — what the offline search.Expander produces from a from-scratch
// mine of the same window.
func TestServedExpansionEquivalence(t *testing.T) {
	docs := corpus.MustGenerate(corpus.CorpusB(corpus.Small))
	_, vocab := text.ToDB(docs, nil)
	opts := mining.Options{MinSupCount: 3, MaxK: 3}
	miner, err := New(vocab.Size(), Config{WindowDays: 3, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{Replicas: 1})
	compared := 0

	full, _ := text.ToDB(docs, vocab)
	for lo := 0; lo < full.Len(); {
		day := full.DayOf(lo)
		hi := lo
		for hi < full.Len() && full.DayOf(hi) == day {
			hi++
		}
		batch := make([]txdb.Transaction, 0, hi-lo)
		for i := lo; i < hi; i++ {
			batch = append(batch, full.Tx(i))
		}
		lo = hi
		if err := miner.Ingest(batch); err != nil {
			t.Fatal(err)
		}

		win := miner.WindowDB()
		incRules := rules.Generate(miner.Frequent(), win.Len(), 0.5)
		ws := rules.ToWordRules(incRules, vocab.Word)
		if len(ws) == 0 {
			continue
		}
		gen, err := srv.Swap(ws, fmt.Sprintf("day %d", day))
		if err != nil {
			t.Fatal(err)
		}

		res, err := core.MinePMIHP(win, core.PMIHPConfig{Nodes: 2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		refRules := rules.Generate(res.Result.Frequent, win.Len(), 0.5)
		exp := search.NewExpander(refRules, vocab)

		heads := map[string]bool{}
		var queries [][]string
		for _, w := range ws {
			if len(w.Antecedent) == 1 && !heads[w.Antecedent[0]] {
				heads[w.Antecedent[0]] = true
				queries = append(queries, []string{w.Antecedent[0]})
			}
		}
		if len(queries) >= 2 {
			queries = append(queries, []string{queries[0][0], queries[1][0]})
		}
		for _, q := range queries {
			got := mustJSON(t, gen.Index.Expand(8, q...))
			want := mustJSON(t, renderSearch(exp.Expand(8, q...)))
			if !bytes.Equal(got, want) {
				t.Fatalf("day %d query %v: served %s want %s", day, q, got, want)
			}
			compared++
		}
	}
	if compared < 8 {
		t.Fatalf("only %d expansion queries compared; gate too weak", compared)
	}
}

// renderSearch maps offline Expander output into the served DTO, the same
// rendering the serve suite's byte-identity gate uses.
func renderSearch(exps []search.Expansion) []serve.ExpansionJSON {
	out := make([]serve.ExpansionJSON, 0, len(exps))
	for _, e := range exps {
		je := serve.ExpansionJSON{Word: e.Word}
		for _, term := range e.Terms {
			je.Terms = append(je.Terms, serve.TermJSON{
				Term:            term.Word,
				Support:         term.Rule.Support,
				SupportFraction: term.Rule.Frac,
				Confidence:      term.Rule.Confidence,
				Lift:            term.Rule.Lift,
			})
		}
		out = append(out, je)
	}
	return out
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFuzzedBatchSequences feeds deterministic pseudo-random batch
// sequences — varying batch sizes, day gaps, same-day continuation
// batches, empty batches, vocabulary growth — through the miner and holds
// every step to the from-scratch gate, in both plain and decay modes. The
// miner and the plain gate both run core's local miner, so plain mode is
// also held to mining.BruteForce of the window.
func TestFuzzedBatchSequences(t *testing.T) {
	for _, mode := range []struct {
		name  string
		decay float64
	}{{"plain", 0}, {"decay", 0.7}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(42))
			opts := mining.Options{MinSupCount: 2, MaxK: 4}
			miner, err := New(20, Config{WindowDays: 4, Decay: mode.decay, Opts: opts})
			if err != nil {
				t.Fatal(err)
			}
			day := 0
			var txDays []int // the day of every transaction appended so far
			for step := 0; step < 40; step++ {
				day += []int{0, 0, 1, 1, 1, 2, 5}[rng.Intn(7)]
				n := rng.Intn(7)
				batch := make([]txdb.Transaction, 0, n)
				for i := 0; i < n; i++ {
					numItems := 20 + rng.Intn(10) // occasionally coins ids ≥ 20: vocabulary growth
					k := 1 + rng.Intn(5)
					set := map[itemset.Item]bool{}
					for len(set) < k {
						set[itemset.Item(rng.Intn(numItems))] = true
					}
					items := make(itemset.Itemset, 0, k)
					for it := range set {
						items = append(items, it)
					}
					slices.Sort(items)
					batch = append(batch, txdb.Transaction{Day: day, Items: items})
				}
				if err := miner.Ingest(batch); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for range batch {
					txDays = append(txDays, day)
				}
				// The gate mines whatever WindowDB returns, so pin the
				// window itself: the days (lastDay-3 .. lastDay). A step
				// re-reads its whole window; an empty batch reads nothing.
				inWindow, windowDays := 0, map[int]bool{}
				for _, d := range txDays {
					if d > txDays[len(txDays)-1]-4 {
						inWindow++
						windowDays[d] = true
					}
				}
				scanned := inWindow
				if n == 0 {
					scanned = 0
				}
				st := miner.LastStats()
				if got := miner.WindowDB().Len(); got != inWindow || st.WindowTx != inWindow ||
					st.WindowDayCount != len(windowDays) || st.NewTx != n || st.ScannedTx != scanned {
					t.Fatalf("step %d: window holds %d tx, stats %+v; want window %d tx / %d days, new %d, scanned %d",
						step, got, st, inWindow, len(windowDays), n, scanned)
				}
				if err := VerifyStep(miner, 3); err != nil {
					t.Fatalf("step %d (day %d, +%d tx): %v", step, day, n, err)
				}
				if mode.decay == 0 {
					want := mining.BruteForce(miner.WindowDB(), opts).Frequent
					if err := diffRendered("frequent", RenderCounted(miner.Frequent()), RenderCounted(want)); err != nil {
						t.Fatalf("step %d (day %d, +%d tx) vs BruteForce: %v", step, day, n, err)
					}
				}
			}
			if miner.Store().NumItems() <= 20 {
				t.Fatal("sequence never grew the vocabulary; weak coverage")
			}
		})
	}
}

// TestStateRoundTrip pins checkpoint fidelity directly: encode → decode
// must reproduce the results byte for byte, the canonical encoding must
// be stable, and a restored miner must evolve identically to the original
// under further ingests.
func TestStateRoundTrip(t *testing.T) {
	for _, decay := range []float64{0, 0.8} {
		decay := decay
		t.Run(fmt.Sprintf("decay%v", decay), func(t *testing.T) {
			docs := corpus.MustGenerate(corpus.CorpusB(corpus.Small))
			full, vocab := text.ToDB(docs, nil)
			miner, err := New(vocab.Size(), Config{WindowDays: 3, Decay: decay,
				Opts: mining.Options{MinSupCount: 3, MaxK: 3}})
			if err != nil {
				t.Fatal(err)
			}
			var batches [][]txdb.Transaction
			for lo := 0; lo < full.Len(); {
				day := full.DayOf(lo)
				hi := lo
				for hi < full.Len() && full.DayOf(hi) == day {
					hi++
				}
				batch := make([]txdb.Transaction, 0, hi-lo)
				for i := lo; i < hi; i++ {
					batch = append(batch, full.Tx(i))
				}
				batches = append(batches, batch)
				lo = hi
			}
			for _, b := range batches[:5] {
				if err := miner.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}

			path := filepath.Join(t.TempDir(), "stream.ckpt")
			if err := miner.SaveCheckpoint(path, 0xabcdef); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Steps() != miner.Steps() {
				t.Fatalf("restored %d steps, want %d", restored.Steps(), miner.Steps())
			}
			// The canonical invariant, held directly: re-encoding the
			// restored state reproduces the original payload bit for bit.
			orig, err := miner.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			again, err := restored.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(orig, again) {
				t.Fatal("restored state re-encodes differently")
			}
			check := func(stage string) {
				t.Helper()
				if !bytes.Equal(RenderCounted(miner.Frequent()), RenderCounted(restored.Frequent())) {
					t.Fatalf("%s: frequent sets diverge", stage)
				}
				if !bytes.Equal(RenderWeighted(miner.WeightedFrequent()), RenderWeighted(restored.WeightedFrequent())) {
					t.Fatalf("%s: weighted sets diverge", stage)
				}
				a, b := miner.WindowDB(), restored.WindowDB()
				if a.Len() != b.Len() {
					t.Fatalf("%s: window %d vs %d tx", stage, a.Len(), b.Len())
				}
				for i := 0; i < a.Len(); i++ {
					if a.TIDOf(i) != b.TIDOf(i) || a.DayOf(i) != b.DayOf(i) ||
						itemset.Compare(a.ItemsOf(i), b.ItemsOf(i)) != 0 {
						t.Fatalf("%s: window tx %d diverges", stage, i)
					}
				}
			}
			check("after restore")
			for _, b := range batches[5:] {
				if err := miner.Ingest(b); err != nil {
					t.Fatal(err)
				}
				if err := restored.Ingest(b); err != nil {
					t.Fatal(err)
				}
				check("after further ingest")
			}
		})
	}
}

// TestDecayOneMatchesPlainSets pins the weighted path's semantics at the
// boundary: with Decay == 1 every day weighs 1.0, so the weighted support
// of every set equals its integer count exactly (small-integer float sums
// are exact) and the qualifying sets must coincide with the plain run's.
func TestDecayOneMatchesPlainSets(t *testing.T) {
	docs := corpus.MustGenerate(corpus.CorpusB(corpus.Small))
	full, vocab := text.ToDB(docs, nil)
	opts := mining.Options{MinSupCount: 3, MaxK: 3}
	plain, err := New(vocab.Size(), Config{WindowDays: 3, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := New(vocab.Size(), Config{WindowDays: 3, Decay: 1, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < full.Len(); {
		day := full.DayOf(lo)
		hi := lo
		for hi < full.Len() && full.DayOf(hi) == day {
			hi++
		}
		batch := make([]txdb.Transaction, 0, hi-lo)
		for i := lo; i < hi; i++ {
			batch = append(batch, full.Tx(i))
		}
		lo = hi
		if err := plain.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if err := weighted.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(RenderCounted(plain.Frequent()), RenderCounted(weighted.Frequent())) {
			t.Fatalf("day %d: decay-1 sets diverge from plain", day)
		}
		for _, e := range weighted.WeightedFrequent() {
			if e.Weight != float64(e.Count) {
				t.Fatalf("day %d: %v weight %v != count %d", day, e.Set, e.Weight, e.Count)
			}
		}
	}
}
