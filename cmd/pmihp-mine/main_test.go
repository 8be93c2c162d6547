package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmihp/internal/distmine"
	"pmihp/internal/rules"
	"pmihp/internal/streammine"
)

func TestRunMissingCorpusFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.txt")
	err := run([]string{"mine", "-in", path}, &strings.Builder{})
	if err == nil {
		t.Fatal("expected an error for a missing corpus file")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error does not name the file: %v", err)
	}
}

func TestRunEmptyCorpusFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"mine", "-in", path}, &strings.Builder{})
	if err == nil {
		t.Fatal("expected an error for an empty corpus")
	}
	if !strings.Contains(err.Error(), "no documents") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestRunPresetCorpus(t *testing.T) {
	var out strings.Builder
	err := run([]string{"mine", "-corpus", "b", "-scale", "small", "-algo", "pmihp", "-minsup-count", "2", "-maxk", "3", "-rules", "0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "frequent itemsets found") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

// TestRunRulesOut exports the mined rule set and checks the file parses
// back into the exact canonical set pmihp-serve would build from — even
// with -rules 0, since the export alone forces rule generation.
func TestRunRulesOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.json")
	var out strings.Builder
	err := run([]string{"mine", "-corpus", "b", "-scale", "small", "-minsup-count", "3", "-maxk", "3",
		"-rules", "0", "-minconf", "0.5", "-rules-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote") || !strings.Contains(out.String(), path) {
		t.Fatalf("missing export line:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ws, err := rules.ParseJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		t.Fatal("export contains no rules")
	}
	for i := 1; i < len(ws); i++ {
		if rules.CanonWord(ws[i-1], ws[i]) > 0 {
			t.Fatalf("export not in canonical order at %d", i)
		}
	}

	// An unwritable path must fail loudly, not export silently.
	err = run([]string{"mine", "-corpus", "b", "-scale", "small", "-minsup-count", "3", "-maxk", "3",
		"-rules", "0", "-rules-out", filepath.Join(t.TempDir(), "no", "such", "dir.json")}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "rules export") {
		t.Fatalf("expected export error, got %v", err)
	}
}

// TestRunClusterAndSpawnExclusive requires cluster to name its workers
// exactly one way: pre-started (-addrs) or spawned (-spawn).
func TestRunClusterAndSpawnExclusive(t *testing.T) {
	for _, args := range [][]string{{"cluster", "-addrs", "x:1", "-spawn", "2"}, {"cluster"}} {
		err := run(args, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), "exactly one of -addrs and -spawn") {
			t.Errorf("run(%q) = %v, want an exactly-one error", args, err)
		}
	}
}

// TestRunUsageErrors checks the subcommand is required and that each
// subcommand's flag set holds only what its runtime reads: a flag of
// another runtime, or a removed one, fails instead of being dropped.
func TestRunUsageErrors(t *testing.T) {
	const usage, undefined = "mine|cluster|stream|sched", "flag provided but not defined"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, usage},
		{[]string{"-corpus", "b"}, usage},
		{[]string{"bogus"}, usage},
		{[]string{"stream", "-trace-json", "x"}, undefined},
		{[]string{"stream", "-metrics-addr", "x"}, undefined},
		{[]string{"stream", "-algo", "apriori"}, undefined},
		{[]string{"stream", "-rules-out", "x"}, undefined},
		{[]string{"stream", "-partitioner", "work"}, undefined},
		{[]string{"cluster", "-algo", "apriori"}, undefined},
		{[]string{"cluster", "-nodes", "8"}, undefined},
		{[]string{"cluster", "-window", "3"}, undefined},
		{[]string{"mine", "-addrs", "x"}, undefined},
		{[]string{"mine", "-window", "3"}, undefined},
		{[]string{"mine", "-listen", "x"}, undefined},
		{[]string{"sched", "-spawn", "2"}, undefined},
		{[]string{"mine", "-heartbeat", "1s"}, undefined},
		{[]string{"mine", "-metrics-linger", "1s"}, undefined},
		{[]string{"mine", "-stream"}, undefined},
	} {
		err := run(tc.args, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestRunClusterMode(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		d := distmine.NewDaemon(distmine.DaemonOptions{})
		go d.Serve(ln)
		addrs[i] = ln.Addr().String()
	}
	var out strings.Builder
	err := run([]string{
		"cluster", "-addrs", strings.Join(addrs, ","),
		"-corpus", "b", "-scale", "small", "-minsup-count", "2", "-maxk", "3", "-rules", "0",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cluster of 2 nodes") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

// TestRunStream replays a preset corpus through the windowed
// miner with the per-step equivalence gate on, a checkpoint, and a
// scripted crash-and-resume, and checks the JSON report parses back with
// every step verified equivalent.
func TestRunStream(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "stream.json")
	var out strings.Builder
	err := run([]string{"stream", "-corpus", "b", "-scale", "small", "-minsup-count", "3", "-maxk", "3",
		"-window", "3", "-verify", "2",
		"-checkpoint", filepath.Join(dir, "stream.ckpt"), "-crash-step", "4",
		"-json", reportPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verified equivalent to from-scratch") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var report streammine.Report
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	if !report.AllEquivalent || len(report.Steps) != 8 {
		t.Fatalf("report: %+v", report)
	}
	resumed := false
	for _, sr := range report.Steps {
		if !sr.Verified || !sr.Equivalent {
			t.Fatalf("step %d not verified equivalent", sr.Step)
		}
		resumed = resumed || sr.Resumed
	}
	if !resumed {
		t.Fatal("no step resumed from the checkpoint")
	}
}
