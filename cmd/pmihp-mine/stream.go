package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pmihp/internal/streammine"
	"pmihp/internal/text"
)

// addStreamFlags registers the stream subcommand's own flags and returns
// its runner: a replay of the corpus through the windowed miner
// (internal/streammine), one batch of days per step, optionally proving
// every step byte-identical to a from-scratch mine, publishing each
// generation to a serve daemon, and writing the JSON report.
func addStreamFlags(fs *flag.FlagSet, in *input) runner {
	window := fs.Int("window", 3, "sliding window width in days (0 = unbounded)")
	batchDays := fs.Int("batch-days", 1, "days ingested per step")
	decay := fs.Float64("decay", 0, "exponential day-decay weight in (0, 1] (0 = off)")
	verify := fs.Int("verify", 2, "per-step equivalence gate: re-mine each window from scratch on this many nodes and require byte-identical results (0 = off)")
	serveURL := fs.String("serve", "", "POST each generation's rules to this pmihp-serve base URL's /admin/swap")
	checkpoint := fs.String("checkpoint", "", "persist the miner's state to this PMCK file after every step")
	crashStep := fs.Int("crash-step", 0, "simulate a crash after this step and resume from -checkpoint (0 = never)")
	jsonOut := fs.String("json", "", "write the replay report as JSON to this file (\"-\" = stdout)")
	return func(out io.Writer, docs []text.Document, label string) error {
		cfg := streammine.ReplayConfig{
			WindowDays:     *window,
			Decay:          *decay,
			Opts:           in.opts,
			BatchDays:      *batchDays,
			MinConf:        in.minConf,
			VerifyNodes:    *verify,
			CheckpointPath: *checkpoint,
			CrashAfterStep: *crashStep,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(out, format+"\n", args...)
			},
		}
		if *serveURL != "" {
			cfg.Publish = streammine.NewSwapPublisher(nil, *serveURL)
		}
		fmt.Fprintf(out, "streaming %s: %d docs, window %d days, %d day(s)/batch, decay %v, verify x%d\n",
			label, len(docs), *window, *batchDays, *decay, *verify)

		report, err := streammine.Replay(docs, cfg)
		if report != nil && *jsonOut != "" {
			w := out
			var file *os.File
			if *jsonOut != "-" {
				var ferr error
				file, ferr = os.Create(*jsonOut)
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
				fmt.Fprintf(out, "wrote stream report to %s\n", *jsonOut)
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
		if *verify > 0 && !report.AllEquivalent {
			return fmt.Errorf("stream replay diverged from from-scratch mining")
		}
		return nil
	}
}
