package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pmihp/internal/mining"
	"pmihp/internal/streammine"
	"pmihp/internal/text"
)

// streamFlags carries the -stream* flag values into the replay runner.
type streamFlags struct {
	window     int
	batchDays  int
	decay      float64
	verify     int
	serveURL   string
	checkpoint string
	crashStep  int
	jsonOut    string
	opts       mining.Options
	minConf    float64
}

// runStream replays the corpus through the windowed miner
// (internal/streammine), one batch of days per step, optionally proving
// every step byte-identical to a from-scratch mine, publishing each
// generation to a serve daemon, and writing the JSON report.
func runStream(out io.Writer, docs []text.Document, label string, f streamFlags) error {
	cfg := streammine.ReplayConfig{
		WindowDays:     f.window,
		Decay:          f.decay,
		Opts:           f.opts,
		BatchDays:      f.batchDays,
		MinConf:        f.minConf,
		VerifyNodes:    f.verify,
		CheckpointPath: f.checkpoint,
		CrashAfterStep: f.crashStep,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	}
	if f.serveURL != "" {
		cfg.Publish = streammine.NewSwapPublisher(nil, f.serveURL)
	}
	fmt.Fprintf(out, "streaming %s: %d docs, window %d days, %d day(s)/batch, decay %v, verify x%d\n",
		label, len(docs), f.window, f.batchDays, f.decay, f.verify)

	report, err := streammine.Replay(docs, cfg)
	if report != nil && f.jsonOut != "" {
		w := out
		var file *os.File
		if f.jsonOut != "-" {
			var ferr error
			file, ferr = os.Create(f.jsonOut)
			if ferr != nil {
				return fmt.Errorf("creating stream report: %w", ferr)
			}
			defer file.Close()
			w = file
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if jerr := enc.Encode(report); jerr != nil {
			return fmt.Errorf("writing stream report: %w", jerr)
		}
		if file != nil {
			fmt.Fprintf(out, "wrote stream report to %s\n", f.jsonOut)
		}
	}
	if err != nil {
		return err
	}
	verified := 0
	for _, sr := range report.Steps {
		if sr.Verified {
			verified++
		}
	}
	fmt.Fprintf(out, "stream replay done: %d steps, %d verified equivalent to from-scratch\n",
		len(report.Steps), verified)
	if f.verify > 0 && !report.AllEquivalent {
		return fmt.Errorf("stream replay diverged from from-scratch mining")
	}
	return nil
}
