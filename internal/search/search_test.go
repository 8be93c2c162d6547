package search

import (
	"math/rand"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/rules"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// fixture corpus: four tiny documents with a B=>C structure ("futures"
// implies "market", and one document mentions futures without market).
func fixture() (*txdb.DB, *text.Vocabulary) {
	docs := []text.Document{
		{Day: 0, Words: []string{"bank", "market", "stock"}},
		{Day: 0, Words: []string{"futures", "market"}},
		{Day: 1, Words: []string{"futures", "market", "trading"}},
		{Day: 1, Words: []string{"futures", "trading"}},
	}
	return text.ToDB(docs, nil)
}

// DocFreq returns the number of documents containing the word.
func (idx *Index) DocFreq(word string) int { return len(idx.Postings(word)) }

func TestPostingsAndDocFreq(t *testing.T) {
	db, vocab := fixture()
	idx := Build(db, vocab)
	if idx.Docs() != 4 {
		t.Fatalf("Docs = %d", idx.Docs())
	}
	if idx.DocFreq("market") != 3 || idx.DocFreq("bank") != 1 || idx.DocFreq("missing") != 0 {
		t.Fatalf("DocFreq wrong: market=%d bank=%d", idx.DocFreq("market"), idx.DocFreq("bank"))
	}
	p := idx.Postings("futures")
	if len(p) != 3 || p[0] != 1 || p[1] != 2 || p[2] != 3 {
		t.Fatalf("Postings(futures) = %v", p)
	}
}

func TestSearchAny(t *testing.T) {
	db, vocab := fixture()
	idx := Build(db, vocab)
	got := idx.SearchAny("bank", "trading")
	if len(got) != 3 { // docs 0, 2, 3
		t.Fatalf("SearchAny = %v", got)
	}
}

func TestExpansionFindsExtraDocuments(t *testing.T) {
	db, vocab := fixture()
	idx := Build(db, vocab)

	// Rule: futures => market (conf 2/3) — the paper's B => C example.
	fid, _ := vocab.ID("futures")
	mid, _ := vocab.ID("market")
	rs := []rules.Rule{{
		Antecedent: itemset.Itemset{fid},
		Consequent: itemset.Itemset{mid},
		Support:    2, Confidence: 2.0 / 3,
	}}
	exp := NewExpander(rs, vocab)

	expansions := exp.Expand(5, "market")
	if len(expansions) != 1 || len(expansions[0].Terms) != 1 || expansions[0].Terms[0].Word != "futures" {
		t.Fatalf("Expand = %+v", expansions)
	}

	all, extra := exp.ExpandedSearch(idx, 5, "market")
	// Direct: docs 0,1,2. Expansion adds doc 3 (futures-only).
	if len(all) != 4 {
		t.Fatalf("expanded search found %d docs", len(all))
	}
	if len(extra) != 1 || extra[0] != 3 {
		t.Fatalf("extra docs = %v", extra)
	}
}

func TestExpandUnknownWord(t *testing.T) {
	db, vocab := fixture()
	_ = Build(db, vocab)
	exp := NewExpander(nil, vocab)
	got := exp.Expand(3, "nonexistent")
	if len(got) != 1 || len(got[0].Terms) != 0 {
		t.Fatalf("Expand unknown = %+v", got)
	}
}

func TestExpandLimit(t *testing.T) {
	db, vocab := fixture()
	_ = db
	mid, _ := vocab.ID("market")
	var rs []rules.Rule
	for _, w := range []string{"bank", "futures", "stock", "trading"} {
		id, _ := vocab.ID(w)
		rs = append(rs, rules.Rule{
			Antecedent: itemset.Itemset{id},
			Consequent: itemset.Itemset{mid},
			Confidence: 0.9,
		})
	}
	exp := NewExpander(rs, vocab)
	got := exp.Expand(2, "market")
	if len(got[0].Terms) != 2 {
		t.Fatalf("limit ignored: %d terms", len(got[0].Terms))
	}
}

// TestExpandInputOrderIndependence: the Expander canonicalizes its rule
// set at construction, so shuffling the caller's slice — including ties
// in confidence and support — must not change a single expansion term.
func TestExpandInputOrderIndependence(t *testing.T) {
	docs := corpus.MustGenerate(corpus.CorpusB(corpus.Small))
	db, vocab := text.ToDB(docs, nil)
	res := mining.BruteForce(db, mining.Options{MinSupCount: 3, MaxK: 3})
	rs := rules.Generate(res.Frequent, db.Len(), 0.5)
	if len(rs) < 4 {
		t.Fatalf("fixture mined only %d rules", len(rs))
	}
	base := NewExpander(rs, vocab)
	queries := make([]string, vocab.Size())
	for i := range queries {
		queries[i] = vocab.Word(uint32(i))
	}
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]rules.Rule(nil), rs...)
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		exp := NewExpander(shuffled, vocab)
		for _, q := range queries {
			want := base.Expand(3, q)
			got := exp.Expand(3, q)
			if len(got) != len(want) {
				t.Fatalf("trial %d query %q: %d expansions, want %d", trial, q, len(got), len(want))
			}
			for i := range want {
				if len(got[i].Terms) != len(want[i].Terms) {
					t.Fatalf("trial %d query %q: %d terms, want %d", trial, q, len(got[i].Terms), len(want[i].Terms))
				}
				for j := range want[i].Terms {
					gt, wt := got[i].Terms[j], want[i].Terms[j]
					if gt.Word != wt.Word || rules.Canon(gt.Rule, wt.Rule) != 0 {
						t.Fatalf("trial %d query %q term %d: %+v, want %+v", trial, q, j, gt, wt)
					}
				}
			}
		}
	}
	// The caller's slice itself must be left untouched (Expander sorts a
	// copy).
	before := append([]rules.Rule(nil), rs...)
	NewExpander(rs, vocab)
	for i := range rs {
		if rules.Canon(rs[i], before[i]) != 0 {
			t.Fatal("NewExpander reordered the caller's slice")
		}
	}
}

func TestIndexAgainstBruteForce(t *testing.T) {
	// Postings-based disjunctive search must agree with scanning the raw
	// transactions, across many random queries.
	docs := corpus.MustGenerate(corpus.CorpusB(corpus.Small))
	db, vocab := text.ToDB(docs, nil)
	idx := Build(db, vocab)

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(3)
		var words []string
		var ids itemset.Itemset
		for len(words) < n {
			id := itemset.Item(rng.Intn(vocab.Size()))
			words = append(words, vocab.Word(id))
			ids = itemset.New(append(ids, id)...)
		}
		got := idx.SearchAny(words...)
		var want []txdb.TID
		db.Each(func(tx *txdb.Transaction) {
			for _, id := range ids {
				if (itemset.Itemset{id}).SubsetOf(tx.Items) {
					want = append(want, tx.TID)
					break
				}
			}
		})
		if len(got) != len(want) {
			t.Fatalf("query %v: %d hits, want %d", words, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %v: hit %d = %d, want %d", words, i, got[i], want[i])
			}
		}
	}
}
