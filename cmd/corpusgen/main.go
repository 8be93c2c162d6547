// Command corpusgen generates a synthetic news corpus and reports its
// statistics on stderr, optionally dumping the documents to stdout as
// one-line word lists (TID, day, then the distinct content words) or
// saving them in the line format the other commands read. The first
// argument names the mode, which accepts only the flags it reads
// (`corpusgen <mode> -h` lists them):
//
//	corpusgen preset -corpus b -scale harness
//	corpusgen preset -corpus a -scale small -dump | head
//	corpusgen custom -docs 500 -vocab 5000 -days 10 -skew 0.4 -seed 7
//
// The exit status is 2 for a usage error and 1 for a failed run.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pmihp/internal/corpus"
	"pmihp/internal/text"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = "usage: corpusgen preset|custom [flags]"

// run parses the mode's flag set, generates the corpus and writes it out.
// It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	fs := flag.NewFlagSet("corpusgen "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var config func() (corpus.Config, error)
	switch args[0] {
	case "preset":
		config = addPresetFlags(fs)
	case "custom":
		config = addCustomFlags(fs)
	default:
		fmt.Fprintf(stderr, "corpusgen: unknown mode %q\n%s\n", args[0], usage)
		return 2
	}
	dump := fs.Bool("dump", false, "write documents to stdout (tid day word word ...)")
	out := fs.String("out", "", "write documents to a file in the line format (day word word ...)")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "corpusgen %s: got arguments %q after the flags\n%s\n", args[0], fs.Args(), usage)
		return 2
	}
	cfg, err := config()
	if err != nil {
		fmt.Fprintln(stderr, "corpusgen:", err)
		return 2
	}
	if err := generate(cfg, *dump, *out, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "corpusgen:", err)
		return 1
	}
	return 0
}

// addPresetFlags registers the preset mode's flags; the returned function
// resolves them to the preset's configuration.
func addPresetFlags(fs *flag.FlagSet) func() (corpus.Config, error) {
	id := fs.String("corpus", "b", "corpus preset: a, b, c, dense, or skewed")
	scale := fs.String("scale", "small", "corpus scale: small, harness, paper")
	return func() (corpus.Config, error) {
		sc, err := corpus.ParseScale(*scale)
		if err != nil {
			return corpus.Config{}, err
		}
		return corpus.Preset(*id, sc)
	}
}

// addCustomFlags registers the custom mode's flags; the returned function
// builds the configuration they describe.
func addCustomFlags(fs *flag.FlagSet) func() (corpus.Config, error) {
	docs := fs.Int("docs", 500, "number of documents")
	vocab := fs.Int("vocab", 5000, "vocabulary size")
	days := fs.Int("days", 10, "publication days")
	docLen := fs.Float64("doclen", 80, "mean distinct words per document")
	skew := fs.Float64("skew", 0.3, "chronological topic skew in [0,1]")
	seed := fs.Int64("seed", 1, "PRNG seed")
	return func() (corpus.Config, error) {
		cfg := corpus.Config{
			Name: "custom", Docs: *docs, Days: *days, VocabSize: *vocab,
			DocLenMean: *docLen, DocLenSigma: 0.5, ZipfS: 1.1,
			TopicsPerDay: 8, TopicWords: 50, Skew: *skew, Seed: *seed,
		}
		return cfg, cfg.Validate()
	}
}

// generate builds the corpus, reports its statistics on stderr, and
// writes the documents to out and, under dump, to stdout.
func generate(cfg corpus.Config, dump bool, out string, stdout, stderr io.Writer) error {
	generated, err := corpus.Generate(cfg)
	if err != nil {
		return err
	}
	db, _ := text.ToDB(generated, nil)
	st := db.ComputeStats()
	fmt.Fprintf(stderr, "corpus %s: %d docs over %d days, %d unique words, %d word occurrences\n",
		cfg.Name, st.Docs, st.Days, st.UniqueItems, st.TotalItems)
	fmt.Fprintf(stderr, "mean %.1f distinct words/doc, median %.0f docs/day\n",
		st.MeanLen, st.MedianDocsDay)
	fmt.Fprintf(stderr, "density: max df %d over TID span %d (%.3f)\n",
		st.MaxDF, st.TIDSpan, st.MaxDensity)

	if out != "" {
		if err := text.SaveDocuments(out, generated); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", out)
	}
	if dump {
		w := bufio.NewWriter(stdout)
		for i, d := range generated {
			fmt.Fprintf(w, "%d %d %s\n", i, d.Day, strings.Join(d.Words, " "))
		}
		return w.Flush()
	}
	return nil
}
