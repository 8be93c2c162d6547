// Command pmihp-trace validates and replays an observability trace
// written by the -trace-json flag of pmihp-node or of pmihp-mine's mine,
// cluster and sched subcommands. Every line is checked against the event
// schema; a malformed trace fails with a line-attributed error and a
// non-zero exit, which is what CI's smoke job relies on. On success it
// prints the replayed totals — the same Summary the /snapshot endpoint
// serves.
//
// Usage:
//
//	pmihp-trace trace.jsonl          # human-readable totals
//	pmihp-trace -json trace.jsonl    # totals as one JSON object
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"pmihp/internal/obs"
)

func main() {
	jsonOut := false
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "-json" {
		jsonOut = true
		args = args[1:]
	}
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: pmihp-trace [-json] trace.jsonl")
		os.Exit(2)
	}
	events, err := obs.ReadTraceFile(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmihp-trace: %v\n", err)
		os.Exit(1)
	}
	sum := obs.Summarize(events)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintf(os.Stderr, "pmihp-trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("%d events, %d passes\n", len(events), sum.Passes)
	ks := make([]int, 0, len(sum.CandidatesByK))
	for k := range sum.CandidatesByK {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		fmt.Printf("  k=%d: %d candidates mined, %d poll-served\n", k, sum.CandidatesByK[k], sum.PolledByK[k])
	}
	fmt.Printf("pruned: %d THT, %d subset; trimmed %d items, pruned %d transactions\n",
		sum.PrunedTHT, sum.PrunedSubset, sum.TrimmedItems, sum.PrunedTx)
	fmt.Printf("scan %.3fs, generation %.3fs, exchange %.3fs, %d wire bytes\n",
		sum.ScanSeconds, sum.GenSeconds, sum.ExchangeSeconds, sum.WireBytes)
	names := make([]string, 0, len(sum.SpanSeconds))
	for name := range sum.SpanSeconds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  span %-22s %.3fs\n", name, sum.SpanSeconds[name])
	}
}
