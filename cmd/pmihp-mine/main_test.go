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
	err := run([]string{"-in", path}, &strings.Builder{})
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
	err := run([]string{"-in", path}, &strings.Builder{})
	if err == nil {
		t.Fatal("expected an error for an empty corpus")
	}
	if !strings.Contains(err.Error(), "no documents") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestRunPresetCorpus(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-corpus", "b", "-scale", "small", "-algo", "pmihp", "-minsup-count", "2", "-maxk", "3", "-rules", "0"}, &out)
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
	err := run([]string{"-corpus", "b", "-scale", "small", "-minsup-count", "3", "-maxk", "3",
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
	err = run([]string{"-corpus", "b", "-scale", "small", "-minsup-count", "3", "-maxk", "3",
		"-rules", "0", "-rules-out", filepath.Join(t.TempDir(), "no", "such", "dir.json")}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "rules export") {
		t.Fatalf("expected export error, got %v", err)
	}
}

func TestRunClusterAndSpawnExclusive(t *testing.T) {
	err := run([]string{"-cluster", "x:1", "-spawn", "2"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("expected mutual-exclusion error, got %v", err)
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
		"-cluster", strings.Join(addrs, ","),
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
	err := run([]string{"-corpus", "b", "-scale", "small", "-minsup-count", "3", "-maxk", "3",
		"-stream", "-stream-window", "3", "-stream-verify", "2",
		"-stream-checkpoint", filepath.Join(dir, "stream.ckpt"), "-stream-crash-step", "4",
		"-stream-json", reportPath}, &out)
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
