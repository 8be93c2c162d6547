package rules

import (
	"encoding/json"
	"io"

	"pmihp/internal/itemset"
)

// Export formats for mined rules, so downstream tools (spreadsheets,
// thesaurus builders, retrieval systems) can consume them without linking
// this module.

// jsonRule is the stable wire form of a rule.
type jsonRule struct {
	Antecedent []string `json:"antecedent"`
	Consequent []string `json:"consequent"`
	Support    int      `json:"support"`
	Frac       float64  `json:"supportFraction,omitempty"`
	Confidence float64  `json:"confidence"`
	Lift       float64  `json:"lift,omitempty"`
}

// WriteJSON writes the rules as a JSON array, resolving items to words
// through name.
func WriteJSON(w io.Writer, rs []Rule, name func(itemset.Item) string) error {
	out := make([]jsonRule, len(rs))
	for i, r := range rs {
		out[i] = jsonRule{
			Antecedent: words(r.Antecedent, name),
			Consequent: words(r.Consequent, name),
			Support:    r.Support,
			Frac:       r.Frac,
			Confidence: r.Confidence,
			Lift:       r.Lift,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func words(s itemset.Itemset, name func(itemset.Item) string) []string {
	out := make([]string, len(s))
	for i, it := range s {
		out[i] = name(it)
	}
	return out
}
