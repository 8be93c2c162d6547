package text

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The documents line format: one document per line, "day word word ...".
// It is the interchange format between corpusgen, pmihp-mine's -in flag
// and external tools — trivially greppable and diffable, and loss-free for
// preprocessed documents (which are just day-stamped word sets).

// WriteDocuments writes documents in the line format.
func WriteDocuments(w io.Writer, docs []Document) error {
	bw := bufio.NewWriter(w)
	for i := range docs {
		if _, err := fmt.Fprintf(bw, "%d %s\n", docs[i].Day, strings.Join(docs[i].Words, " ")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDocuments reads documents in the line format. Word lists are
// normalized (sorted, deduplicated, lowercased) so hand-edited files are
// accepted.
func ReadDocuments(r io.Reader) ([]Document, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var docs []Document
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		day, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("text: line %d: bad day %q", lineNo, fields[0])
		}
		seen := make(map[string]struct{}, len(fields)-1)
		words := make([]string, 0, len(fields)-1)
		for _, w := range fields[1:] {
			w = strings.ToLower(w)
			if _, dup := seen[w]; !dup {
				seen[w] = struct{}{}
				words = append(words, w)
			}
		}
		sortStrings(words)
		docs = append(docs, Document{Day: day, Words: words})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return docs, nil
}

// SaveDocuments writes the line format to a file.
func SaveDocuments(path string, docs []Document) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDocuments(f, docs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadDocuments reads the line format from a file.
func LoadDocuments(path string) ([]Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDocuments(f)
}
