// Package search implements the motivating application of the paper's
// introduction: text retrieval over the mined corpus, with query expansion
// driven by association rules. "Consider the case that we have an
// association rule B ⇒ C where B and C are words. A search for documents
// containing C can be expanded by including B. This expansion will allow
// for finding documents [relevant to] C that do not contain C as a term."
package search

import (
	"sort"

	"pmihp/internal/itemset"
	"pmihp/internal/rules"
	"pmihp/internal/text"
	"pmihp/internal/txdb"
)

// Index is an inverted index over a transaction database: for every item,
// the ascending list of TIDs of the documents containing it.
type Index struct {
	postings map[itemset.Item][]txdb.TID
	vocab    *text.Vocabulary
	docs     int
}

// Build constructs the inverted index for the database, resolving words
// through vocab.
func Build(db *txdb.DB, vocab *text.Vocabulary) *Index {
	idx := &Index{
		postings: make(map[itemset.Item][]txdb.TID),
		vocab:    vocab,
		docs:     db.Len(),
	}
	db.Each(func(t *txdb.Transaction) {
		for _, it := range t.Items {
			idx.postings[it] = append(idx.postings[it], t.TID)
		}
	})
	return idx
}

// Docs returns the number of indexed documents.
func (idx *Index) Docs() int { return idx.docs }

// Postings returns the TIDs of documents containing the word, or nil for
// unknown words. The returned slice is owned by the index.
func (idx *Index) Postings(word string) []txdb.TID {
	id, ok := idx.vocab.ID(word)
	if !ok {
		return nil
	}
	return idx.postings[id]
}

// SearchAny returns the TIDs of documents containing at least one query
// word (disjunctive search), in ascending order.
func (idx *Index) SearchAny(words ...string) []txdb.TID {
	seen := make(map[txdb.TID]struct{})
	for _, w := range words {
		for _, tid := range idx.Postings(w) {
			seen[tid] = struct{}{}
		}
	}
	out := make([]txdb.TID, 0, len(seen))
	for tid := range seen {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func intersect(a, b []txdb.TID) []txdb.TID {
	var out []txdb.TID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Expansion is a query word together with the expansion terms the rule base
// licenses for it.
type Expansion struct {
	Word  string
	Terms []ExpansionTerm
}

// ExpansionTerm is one expansion word and the rule that produced it.
type ExpansionTerm struct {
	Word string
	Rule rules.Rule
}

// Expander suggests query expansions from a mined rule set.
type Expander struct {
	vocab *text.Vocabulary
	rules []rules.Rule
}

// NewExpander returns an Expander over the rule set. The rules are
// copied and sorted into the canonical rules.Canon order, so expansions
// never depend on the order the caller assembled the rule set in — a
// rule set parsed back from a JSON export expands identically to the
// freshly generated one.
func NewExpander(rs []rules.Rule, vocab *text.Vocabulary) *Expander {
	sorted := append([]rules.Rule(nil), rs...)
	rules.SortCanonical(sorted)
	return &Expander{vocab: vocab, rules: sorted}
}

// Expand returns, for each query word C, the words B of rules B ⇒ C with
// single-item antecedents, strongest rules first (ties broken by support,
// then lexicographic sides — see rules.Canon), up to limit terms per
// word — the statistical-thesaurus expansion of the paper's introduction.
func (e *Expander) Expand(limit int, words ...string) []Expansion {
	var out []Expansion
	for _, w := range words {
		exp := Expansion{Word: w}
		id, ok := e.vocab.ID(w)
		if !ok {
			out = append(out, exp)
			continue
		}
		for _, r := range rules.WithConsequent(e.rules, id) {
			if len(r.Antecedent) != 1 {
				continue
			}
			exp.Terms = append(exp.Terms, ExpansionTerm{
				Word: e.vocab.Word(r.Antecedent[0]),
				Rule: r,
			})
			if limit > 0 && len(exp.Terms) >= limit {
				break
			}
		}
		out = append(out, exp)
	}
	return out
}

// ExpandedSearch runs a disjunctive search over the query words plus their
// expansions and reports which documents were only reachable through the
// expansion terms.
func (e *Expander) ExpandedSearch(idx *Index, limit int, words ...string) (all, viaExpansion []txdb.TID) {
	base := idx.SearchAny(words...)
	expanded := append([]string{}, words...)
	for _, exp := range e.Expand(limit, words...) {
		for _, t := range exp.Terms {
			expanded = append(expanded, t.Word)
		}
	}
	all = idx.SearchAny(expanded...)
	inBase := make(map[txdb.TID]struct{}, len(base))
	for _, tid := range base {
		inBase[tid] = struct{}{}
	}
	for _, tid := range all {
		if _, ok := inBase[tid]; !ok {
			viaExpansion = append(viaExpansion, tid)
		}
	}
	return all, viaExpansion
}
