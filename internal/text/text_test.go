package text

import (
	"sort"
	"testing"

	"pmihp/internal/itemset"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"IBM's Q3 earnings rose 4.5%", []string{"ibm", "earnings", "rose"}},
		{"", nil},
		{"a b c", nil}, // single letters dropped
		{"Co-operate re-enter", []string{"co", "operate", "re", "enter"}},
		{"UPPER lower MiXeD", []string{"upper", "lower", "mixed"}},
		{"trailing word", []string{"trailing", "word"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestStopWords(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "would", "whereas"} {
		if !IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = false", w)
		}
	}
	for _, w := range []string{"market", "stock", "federal", "earnings"} {
		if IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = true", w)
		}
	}
	if len(stopWords) < 300 {
		t.Fatalf("stoplist suspiciously small: %d", len(stopWords))
	}
}

func TestContentWords(t *testing.T) {
	got := ContentWords("The market and the bank would trade the stock")
	want := []string{"market", "bank", "trade", "stock"}
	if len(got) != len(want) {
		t.Fatalf("ContentWords = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ContentWords = %v, want %v", got, want)
		}
	}
}

func TestDistinctContentWords(t *testing.T) {
	got := DistinctContentWords("Bank bank BANK market market the the")
	want := []string{"bank", "market"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("DistinctContentWords = %v", got)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("result not sorted")
	}
}

func TestVocabularyLexicalOrder(t *testing.T) {
	docs := []Document{
		{Day: 0, Words: []string{"beta", "delta"}},
		{Day: 1, Words: []string{"alpha", "delta", "gamma"}},
	}
	v := BuildVocabulary(docs)
	if v.Size() != 4 {
		t.Fatalf("Size = %d", v.Size())
	}
	// Ids must follow lexical order of words — the invariant the Multipass
	// partitioning relies on.
	prev := ""
	for id := itemset.Item(0); int(id) < v.Size(); id++ {
		w := v.Word(id)
		if w <= prev {
			t.Fatalf("vocabulary not lexically ordered: %q after %q", w, prev)
		}
		prev = w
		back, ok := v.ID(w)
		if !ok || back != id {
			t.Fatalf("round trip failed for %q", w)
		}
	}
	if _, ok := v.ID("missing"); ok {
		t.Fatal("unknown word resolved")
	}
}

func TestToDB(t *testing.T) {
	docs := []Document{
		{Day: 0, Words: []string{"beta", "delta"}},
		{Day: 1, Words: []string{"alpha", "delta", "gamma"}},
	}
	db, vocab := ToDB(docs, nil)
	if db.Len() != 2 || db.NumItems() != vocab.Size() {
		t.Fatalf("db %d docs, %d items", db.Len(), db.NumItems())
	}
	tx := db.Tx(1)
	if tx.TID != 1 || tx.Day != 1 || len(tx.Items) != 3 {
		t.Fatalf("tx = %+v", tx)
	}
	if !tx.Items.Valid() {
		t.Fatal("transaction items not sorted")
	}
	words := vocab.Words(tx.Items)
	if words[0] != "alpha" || words[1] != "delta" || words[2] != "gamma" {
		t.Fatalf("Words = %v", words)
	}
}

func TestToDBWithSharedVocab(t *testing.T) {
	train := []Document{{Words: []string{"alpha", "beta"}}}
	_, vocab := ToDB(train, nil)
	// New docs with unknown words: unknowns are dropped, knowns resolve to
	// the shared vocabulary ids.
	db, v2 := ToDB([]Document{{Words: []string{"alpha", "zeta"}}}, vocab)
	if v2 != vocab {
		t.Fatal("vocab not reused")
	}
	if got := db.Tx(0).Items; len(got) != 1 || vocab.Word(got[0]) != "alpha" {
		t.Fatalf("items = %v", got)
	}
}

func TestPrepareDocument(t *testing.T) {
	d := PrepareDocument(3, "The Bank reported the bank earnings")
	if d.Day != 3 {
		t.Fatalf("Day = %d", d.Day)
	}
	if len(d.Words) != 3 { // bank, earnings, reported
		t.Fatalf("Words = %v", d.Words)
	}
}
