package rules

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/txdb"
)

// fixture: {1,2} in 3 of 4 docs, {1} in 4, {2} in 3.
func fixture() []itemset.Counted {
	return []itemset.Counted{
		{Set: itemset.New(1), Count: 4},
		{Set: itemset.New(2), Count: 3},
		{Set: itemset.New(3), Count: 2},
		{Set: itemset.New(1, 2), Count: 3},
		{Set: itemset.New(1, 3), Count: 2},
		{Set: itemset.New(2, 3), Count: 2},
		{Set: itemset.New(1, 2, 3), Count: 2},
	}
}

func TestGenerateConfidence(t *testing.T) {
	rs := Generate(fixture(), 4, 0.75)
	find := func(a, c itemset.Itemset) *Rule {
		for i := range rs {
			if rs[i].Antecedent.Equal(a) && rs[i].Consequent.Equal(c) {
				return &rs[i]
			}
		}
		return nil
	}
	// 2 => 1 has confidence 3/3 = 1.0.
	r := find(itemset.New(2), itemset.New(1))
	if r == nil || r.Confidence != 1.0 || r.Support != 3 {
		t.Fatalf("2=>1 = %+v", r)
	}
	// 1 => 2 has confidence 3/4 = 0.75, just at threshold.
	if find(itemset.New(1), itemset.New(2)) == nil {
		t.Fatal("1=>2 missing at minconf 0.75")
	}
	// At 0.8 it must vanish.
	rs8 := Generate(fixture(), 4, 0.80)
	for _, r := range rs8 {
		if r.Confidence < 0.80 {
			t.Fatalf("rule below minconf: %+v", r)
		}
	}
	// 3-itemset rules: {2,3} => {1}? {2,3} not frequent, so no rule from it,
	// but {1,3} => {2} (2/2 = 1.0) must exist.
	if find(itemset.New(1, 3), itemset.New(2)) == nil {
		t.Fatal("{1,3}=>{2} missing")
	}
}

func TestRuleBookkeeping(t *testing.T) {
	rs := Generate(fixture(), 4, 0.5)
	for _, r := range rs {
		if len(r.Antecedent) == 0 || len(r.Consequent) == 0 {
			t.Fatalf("empty side: %+v", r)
		}
		if len(itemset.Intersect(r.Antecedent, r.Consequent)) != 0 {
			t.Fatalf("overlapping sides: %+v", r)
		}
		if r.Confidence < 0.5 || r.Confidence > 1.0 {
			t.Fatalf("confidence out of range: %+v", r)
		}
		if r.Frac != float64(r.Support)/4 {
			t.Fatalf("frac wrong: %+v", r)
		}
		if r.Lift <= 0 {
			t.Fatalf("lift missing: %+v", r)
		}
	}
	// Deterministic ranking: confidence desc.
	for i := 1; i < len(rs); i++ {
		if rs[i].Confidence > rs[i-1].Confidence {
			t.Fatal("rules not sorted by confidence")
		}
	}
}

func TestGenerateFromMiner(t *testing.T) {
	// End to end: rules from a real mining result must respect the
	// confidence definition against raw counts.
	txs := []txdb.Transaction{
		{TID: 0, Items: itemset.New(1, 2, 3)},
		{TID: 1, Items: itemset.New(1, 2)},
		{TID: 2, Items: itemset.New(1, 2, 4)},
		{TID: 3, Items: itemset.New(2, 3)},
		{TID: 4, Items: itemset.New(1, 3)},
	}
	db := txdb.New(txs, 6)
	res := mining.BruteForce(db, mining.Options{MinSupCount: 2})
	rs := Generate(res.Frequent, db.Len(), 0.6)
	for _, r := range rs {
		union := itemset.New(slices.Concat(r.Antecedent, r.Consequent)...)
		supU := mining.CountSupport(db, union)
		supA := mining.CountSupport(db, r.Antecedent)
		if r.Support != supU {
			t.Fatalf("support mismatch for %v: %d vs %d", r, r.Support, supU)
		}
		if got := float64(supU) / float64(supA); got != r.Confidence {
			t.Fatalf("confidence mismatch for %v: %g vs %g", r, r.Confidence, got)
		}
	}
}

func TestWithConsequent(t *testing.T) {
	rs := Generate(fixture(), 4, 0.5)
	for _, r := range WithConsequent(rs, 1) {
		if len(r.Consequent) != 1 || r.Consequent[0] != 1 {
			t.Fatalf("wrong consequent: %+v", r)
		}
	}
	if len(WithConsequent(rs, 99)) != 0 {
		t.Fatal("rules for unknown item")
	}
}

func TestRenderAndString(t *testing.T) {
	r := Rule{
		Antecedent: itemset.New(0), Consequent: itemset.New(1),
		Support: 5, Confidence: 0.83,
	}
	names := []string{"beer", "diapers"}
	got := r.Render(func(it itemset.Item) string { return names[it] })
	want := "beer => diapers (sup=5, conf=0.83)"
	if got != want {
		t.Fatalf("Render = %q, want %q", got, want)
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestTruncatedInputIsSafe(t *testing.T) {
	// A frequent list missing the 1-itemsets (e.g. from a MaxK run that
	// dropped them) must not panic or divide by zero.
	in := []itemset.Counted{{Set: itemset.New(1, 2), Count: 3}}
	if rs := Generate(in, 4, 0.5); len(rs) != 0 {
		t.Fatalf("rules from truncated input: %v", rs)
	}
}

func TestWriteJSON(t *testing.T) {
	rs := Generate(fixture(), 4, 0.75)
	var buf bytes.Buffer
	names := map[itemset.Item]string{1: "beer", 2: "diapers", 3: "chips"}
	if err := WriteJSON(&buf, rs, func(it itemset.Item) string { return names[it] }); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != len(rs) {
		t.Fatalf("decoded %d rules, want %d", len(decoded), len(rs))
	}
	for _, d := range decoded {
		if d["confidence"].(float64) < 0.75 {
			t.Fatalf("confidence lost: %v", d)
		}
	}
}
