// Command corpusgen generates a synthetic news corpus preset and reports
// its statistics, optionally dumping the documents as one-line word lists
// (TID, day, then the distinct content words) for external tools.
//
// Usage:
//
//	corpusgen -corpus b -scale harness
//	corpusgen -corpus a -scale small -dump | head
//	corpusgen -docs 500 -vocab 5000 -days 10 -skew 0.4 -seed 7
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"pmihp/internal/corpus"
	"pmihp/internal/text"
)

func main() {
	var (
		corpusID = flag.String("corpus", "b", "corpus preset: a, b, c, dense, or skewed (ignored when -docs > 0)")
		scale    = flag.String("scale", "small", "corpus scale: small, harness, paper")
		dump     = flag.Bool("dump", false, "write documents to stdout (tid day word word ...)")
		out      = flag.String("out", "", "write documents to a file in the line format (day word word ...)")

		docs   = flag.Int("docs", 0, "custom corpus: number of documents (enables custom mode)")
		vocab  = flag.Int("vocab", 5000, "custom corpus: vocabulary size")
		days   = flag.Int("days", 10, "custom corpus: publication days")
		docLen = flag.Float64("doclen", 80, "custom corpus: mean distinct words per document")
		skew   = flag.Float64("skew", 0.3, "custom corpus: chronological topic skew in [0,1]")
		seed   = flag.Int64("seed", 1, "custom corpus: PRNG seed")
	)
	flag.Parse()

	var cfg corpus.Config
	if *docs > 0 {
		cfg = corpus.Config{
			Name: "custom", Docs: *docs, Days: *days, VocabSize: *vocab,
			DocLenMean: *docLen, DocLenSigma: 0.5, ZipfS: 1.1,
			TopicsPerDay: 8, TopicWords: 50, Skew: *skew, Seed: *seed,
		}
	} else {
		sc, err := corpus.ParseScale(*scale)
		if err != nil {
			fail(err)
		}
		if cfg, err = corpus.Preset(*corpusID, sc); err != nil {
			fail(err)
		}
	}

	generated, err := corpus.Generate(cfg)
	if err != nil {
		fail(err)
	}
	db, _ := text.ToDB(generated, nil)
	st := db.ComputeStats()
	fmt.Fprintf(os.Stderr, "corpus %s: %d docs over %d days, %d unique words, %d word occurrences\n",
		cfg.Name, st.Docs, st.Days, st.UniqueItems, st.TotalItems)
	fmt.Fprintf(os.Stderr, "mean %.1f distinct words/doc, median %.0f docs/day\n",
		st.MeanLen, st.MedianDocsDay)
	fmt.Fprintf(os.Stderr, "density: max df %d over TID span %d (%.3f)\n",
		st.MaxDF, st.TIDSpan, st.MaxDensity)

	if *out != "" {
		if err := text.SaveDocuments(*out, generated); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if *dump {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for i, d := range generated {
			fmt.Fprintf(w, "%d %d %s\n", i, d.Day, strings.Join(d.Words, " "))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "corpusgen:", err)
	os.Exit(1)
}
