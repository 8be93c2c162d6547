// Package trec reads documents in the TREC text-collection markup used by
// the paper's Wall Street Journal sample (TREC volumes store each article
// as an SGML-ish <DOC> block with <DOCNO> and <TEXT> children). With real
// TREC WSJ data on disk, the pipeline of the paper can be run verbatim:
//
//	docs, _ := trec.ParseFile("wsj_0401", trec.DayFromDocno)
//	db, vocab := text.ToDB(docs, nil)
//	res, _ := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 8}, opts)
//
// The parser is deliberately forgiving: unknown tags inside <DOC> are
// treated as text containers or ignored, since TREC sub-collections differ
// in their auxiliary fields (<HL>, <LP>, <DATELINE>, …).
package trec

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pmihp/internal/text"
)

// Doc is one parsed TREC document.
type Doc struct {
	DocNo string // contents of <DOCNO>, e.g. "WSJ900402-0001"
	Body  string // concatenated text content of the block
}

// DayFunc assigns a publication day ordinal to a parsed document; documents
// are distributed to simulated nodes chronologically by this value.
type DayFunc func(doc Doc, index int) int

// DayFromDocno derives the day from WSJ-style document numbers
// ("WSJ900402-0001" → 900402). Documents with unparsable numbers share
// day 0, which keeps them in a single chronological block.
func DayFromDocno(doc Doc, _ int) int {
	s := doc.DocNo
	i := 0
	for i < len(s) && !isDigit(s[i]) {
		i++
	}
	j := i
	for j < len(s) && isDigit(s[j]) {
		j++
	}
	if j-i < 6 {
		return 0
	}
	n, err := strconv.Atoi(s[i : i+6])
	if err != nil {
		return 0
	}
	return n
}

// Parse reads every <DOC> block from r.
func Parse(r io.Reader) ([]Doc, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var docs []Doc
	var cur *Doc
	var body strings.Builder
	inDocno := false
	lineNo := 0

	flushDoc := func() {
		if cur != nil {
			cur.Body = body.String()
			docs = append(docs, *cur)
			cur = nil
			body.Reset()
		}
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "<DOC>"):
			if cur != nil {
				return nil, fmt.Errorf("trec: line %d: <DOC> inside an open document", lineNo)
			}
			cur = &Doc{}
		case strings.HasPrefix(trimmed, "</DOC>"):
			if cur == nil {
				return nil, fmt.Errorf("trec: line %d: </DOC> without <DOC>", lineNo)
			}
			flushDoc()
		case cur == nil:
			// Content outside <DOC> blocks (volume headers) is skipped.
		case strings.HasPrefix(trimmed, "<DOCNO>"):
			rest := strings.TrimPrefix(trimmed, "<DOCNO>")
			if idx := strings.Index(rest, "</DOCNO>"); idx >= 0 {
				cur.DocNo = strings.TrimSpace(rest[:idx])
			} else {
				cur.DocNo = strings.TrimSpace(rest)
				inDocno = true
			}
		case inDocno:
			if idx := strings.Index(trimmed, "</DOCNO>"); idx >= 0 {
				cur.DocNo = strings.TrimSpace(cur.DocNo + " " + strings.TrimSpace(trimmed[:idx]))
				inDocno = false
			} else {
				cur.DocNo += " " + trimmed
			}
		default:
			// Everything else inside the document contributes its text,
			// with markup tags stripped.
			body.WriteString(stripTags(line))
			body.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trec: %w", err)
	}
	if cur != nil {
		return nil, fmt.Errorf("trec: unterminated <DOC> (docno %q)", cur.DocNo)
	}
	return docs, nil
}

// ParseFile reads a TREC file and preprocesses each document into the
// mining pipeline's form (tokenized, monocased, stop-filtered word sets),
// assigning days with dayOf (nil selects DayFromDocno). Days are normalized
// to dense ordinals preserving order.
func ParseFile(path string, dayOf DayFunc) ([]text.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return Prepare(raw, dayOf), nil
}

// Prepare converts parsed documents into preprocessed mining documents.
func Prepare(raw []Doc, dayOf DayFunc) []text.Document {
	if dayOf == nil {
		dayOf = DayFromDocno
	}
	days := make([]int, len(raw))
	for i, d := range raw {
		days[i] = dayOf(d, i)
	}
	dense := denseDays(days)
	docs := make([]text.Document, len(raw))
	for i, d := range raw {
		docs[i] = text.PrepareDocument(dense[i], d.Body)
	}
	return docs
}

// denseDays maps arbitrary day keys (e.g. 900402) to dense ordinals in
// ascending key order.
func denseDays(days []int) []int {
	uniq := map[int]int{}
	for _, d := range days {
		uniq[d] = 0
	}
	keys := make([]int, 0, len(uniq))
	for d := range uniq {
		keys = append(keys, d)
	}
	// insertion sort; day counts are small
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for i, d := range keys {
		uniq[d] = i
	}
	out := make([]int, len(days))
	for i, d := range days {
		out[i] = uniq[d]
	}
	return out
}

// stripTags removes SGML tags from a line, keeping their text content.
func stripTags(line string) string {
	var b strings.Builder
	inTag := false
	for _, r := range line {
		switch {
		case r == '<':
			inTag = true
		case r == '>':
			inTag = false
			b.WriteByte(' ')
		case !inTag:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }
