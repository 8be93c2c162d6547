package corpus

import (
	"reflect"
	"testing"

	"pmihp/internal/text"
)

func small() Config {
	cfg := CorpusB(Small)
	cfg.Docs, cfg.VocabSize, cfg.HeadCut, cfg.DocLenMean = 60, 1500, 80, 25
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(small())
	b := MustGenerate(small())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Day != b[i].Day || len(a[i].Words) != len(b[i].Words) {
			t.Fatalf("doc %d differs", i)
		}
		for j := range a[i].Words {
			if a[i].Words[j] != b[i].Words[j] {
				t.Fatalf("doc %d word %d: %q vs %q", i, j, a[i].Words[j], b[i].Words[j])
			}
		}
	}
}

func TestSeedChangesCorpus(t *testing.T) {
	cfg := small()
	a := MustGenerate(cfg)
	cfg.Seed++
	b := MustGenerate(cfg)
	same := true
	for i := range a {
		if len(a[i].Words) != len(b[i].Words) {
			same = false
			break
		}
		for j := range a[i].Words {
			if a[i].Words[j] != b[i].Words[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestDocumentInvariants(t *testing.T) {
	docs := MustGenerate(small())
	for i, d := range docs {
		if d.Day < 0 || d.Day >= small().Days {
			t.Fatalf("doc %d day %d out of range", i, d.Day)
		}
		if i > 0 && d.Day < docs[i-1].Day {
			t.Fatalf("days not monotone at doc %d", i)
		}
		for j, w := range d.Words {
			if j > 0 && w <= d.Words[j-1] {
				t.Fatalf("doc %d words not sorted-distinct: %q, %q", i, d.Words[j-1], w)
			}
			if text.IsStopWord(w) {
				t.Fatalf("doc %d contains stop word %q", i, w)
			}
		}
		if len(d.Words) < 5 {
			t.Fatalf("doc %d suspiciously short: %d words", i, len(d.Words))
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{Docs: 10, Days: 20, VocabSize: 100, DocLenMean: 10, ZipfS: 1.1},
		{Docs: 10, Days: 2, VocabSize: 5, DocLenMean: 10, ZipfS: 1.1},
		{Docs: 10, Days: 2, VocabSize: 100, DocLenMean: 0, ZipfS: 1.1},
		{Docs: 10, Days: 2, VocabSize: 100, DocLenMean: 10, ZipfS: 1.0},
		{Docs: 10, Days: 2, VocabSize: 100, DocLenMean: 10, ZipfS: 1.1, Skew: 1.5},
		{Docs: 10, Days: 2, VocabSize: 100, DocLenMean: 10, ZipfS: 1.1, Skew: 0.5},
		{Docs: 10, Days: 2, VocabSize: 100, DocLenMean: 10, ZipfS: 1.1, HeadCut: 60},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	for _, s := range []Scale{Small, Harness, Paper} {
		for _, cfg := range []Config{CorpusA(s), CorpusB(s), CorpusC(s)} {
			if err := cfg.Validate(); err != nil {
				t.Errorf("preset %s/%s invalid: %v", cfg.Name, s, err)
			}
		}
	}
}

func TestSkewConcentratesDays(t *testing.T) {
	// With skew, words repeat within a day far more than across days; the
	// within-day overlap of documents must exceed the across-day overlap.
	cfg := small()
	cfg.Skew = 0.4
	docs := MustGenerate(cfg)
	db, _ := text.ToDB(docs, nil)

	overlap := func(i, j int) float64 {
		a, b := db.Tx(i).Items, db.Tx(j).Items
		inter := 0
		bi := 0
		for _, x := range a {
			for bi < len(b) && b[bi] < x {
				bi++
			}
			if bi < len(b) && b[bi] == x {
				inter++
			}
		}
		return float64(inter) / float64(len(a)+len(b)-inter)
	}
	within, across := 0.0, 0.0
	nw, na := 0, 0
	for i := 0; i < db.Len(); i++ {
		for j := i + 1; j < db.Len(); j++ {
			if db.Tx(i).Day == db.Tx(j).Day {
				within += overlap(i, j)
				nw++
			} else {
				across += overlap(i, j)
				na++
			}
		}
	}
	if nw == 0 || na == 0 {
		t.Skip("degenerate day split")
	}
	if within/float64(nw) <= across/float64(na) {
		t.Fatalf("no chronological skew: within=%.4f across=%.4f",
			within/float64(nw), across/float64(na))
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"small", "harness", "paper"} {
		sc, err := ParseScale(s)
		if err != nil || sc.String() != s {
			t.Errorf("ParseScale(%q) = %v, %v", s, sc, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("ParseScale accepted junk")
	}
}

// TestPreset: every -corpus name resolves to its preset at the requested
// scale, and an unknown name is rejected with the list of accepted ones.
func TestPreset(t *testing.T) {
	for _, sc := range []Scale{Small, Paper} {
		for _, tc := range []struct {
			name string
			want Config
		}{
			{"a", CorpusA(sc)},
			{"b", CorpusB(sc)},
			{"c", CorpusC(sc)},
			{"d", CorpusDense(sc)},
			{"dense", CorpusDense(sc)},
			{"s", CorpusSkewed(sc)},
			{"skewed", CorpusSkewed(sc)},
		} {
			got, err := Preset(tc.name, sc)
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Preset(%q, %v) = %+v, %v; want %+v", tc.name, sc, got, err, tc.want)
			}
		}
	}
	const want = `unknown corpus "e" (want a, b, c, dense, or skewed)`
	if _, err := Preset("e", Small); err == nil || err.Error() != want {
		t.Fatalf("Preset(\"e\") error %v, want %s", err, want)
	}
}

func TestWordListOrderedDistinct(t *testing.T) {
	words := wordList(2000)
	seen := map[string]struct{}{}
	for i, w := range words {
		if i > 0 && w <= words[i-1] {
			t.Fatalf("wordList not increasing at %d: %q, %q", i, words[i-1], w)
		}
		if _, dup := seen[w]; dup {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = struct{}{}
		if text.IsStopWord(w) {
			t.Fatalf("stop word %q in word list", w)
		}
	}
}
