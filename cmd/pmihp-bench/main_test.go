package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pmihp/internal/benchharness"
	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/experiments"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/rules"
	"pmihp/internal/serve"
	"pmihp/internal/text"
)

// runArgs runs the command and returns its exit status and both streams.
func runArgs(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunUsageErrors: a missing or unknown subcommand, a flag of another
// subcommand, and a bad operand or flag value all exit 2 before anything
// runs; no run quietly drops what it was given.
func TestRunUsageErrors(t *testing.T) {
	const undefined = "flag provided but not defined"
	dir := t.TempDir()
	report := filepath.Join(dir, "f.json")
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{nil, "usage:"},
		{[]string{"bench"}, "usage:"},
		// The removed flag spellings of the five modes.
		{[]string{"-exp", "e1"}, "usage:"},
		{[]string{"-list"}, "usage:"},
		{[]string{"-benchjson", filepath.Join(dir, "out.json")}, "usage:"},
		{[]string{"-serve-load", "http://127.0.0.1:1"}, "usage:"},
		{[]string{"-sched-compare"}, "usage:"},
		{[]string{"-exp", "e4", "-serve-clients", "3", "-sched-report", report}, "usage:"},
		// Flags that belong to another subcommand.
		{[]string{"exp", "-clients", "4", "e1"}, undefined},
		{[]string{"list", "-v"}, undefined},
		{[]string{"figures", "-url", "x", "-json", "y"}, undefined},
		{[]string{"serve-load", "-scale", "small", "-url", "x"}, undefined},
		{[]string{"sched-compare", "-json", "x"}, undefined},
		// Operands and required flags.
		{[]string{"exp"}, "usage:"},
		{[]string{"exp", "e1", "e2"}, "usage:"},
		{[]string{"exp", "e4", "-scale", "small"}, "usage:"},
		{[]string{"exp", "nope"}, `unknown experiment "nope"`},
		{[]string{"exp", "-scale", "huge", "e4"}, "huge"},
		{[]string{"list", "e1"}, "usage:"},
		{[]string{"figures", "-scale", "small"}, "-json"},
		{[]string{"serve-load"}, "-url"},
	} {
		code, stdout, stderr := runArgs(tc.args...)
		if code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%q: stderr %q does not contain %q", tc.args, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("%q: a usage error wrote %q to stdout", tc.args, stdout)
		}
	}
	if _, err := os.Stat(report); !os.IsNotExist(err) {
		t.Errorf("a rejected run wrote %s (stat: %v)", report, err)
	}
}

func TestRunList(t *testing.T) {
	code, stdout, _ := runArgs("list")
	if code != 0 {
		t.Fatalf("list exited %d", code)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	all := experiments.All()
	if len(lines) != len(all) {
		t.Fatalf("list printed %d lines for %d experiments:\n%s", len(lines), len(all), stdout)
	}
	for i, e := range all {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.ID {
			t.Errorf("line %d is %q, want experiment %s", i, lines[i], e.ID)
		}
	}
}

var realTime = regexp.MustCompile(`\(real time [0-9.]+s\)`)

// TestRunExpPrintsRegisteredTable: exp prints the registered
// experiment's table, and its profile flags write both profiles.
func TestRunExpPrintsRegisteredTable(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	code, stdout, stderr := runArgs("exp", "-scale", "small", "-cpuprofile", cpu, "-memprofile", mem, "e4")
	if code != 0 {
		t.Fatalf("exp e4 exited %d: %s", code, stderr)
	}
	e, _ := experiments.ByID("e4")
	out, err := e.Run(experiments.Params{Scale: corpus.Small})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("== %s: %s\n\n%s\n(real time)\n\n", e.ID, e.Title, out)
	if got := realTime.ReplaceAllString(stdout, "(real time)"); got != want {
		t.Fatalf("exp e4 printed\n%s\nwant\n%s", got, want)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (stat: %v)", p, err)
		}
	}
}

// TestRunSchedCompareReport: the gate passes at small scale and -report
// holds the same JSON the command prints.
func TestRunSchedCompareReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.json")
	code, stdout, stderr := runArgs("sched-compare", "-scale", "small", "-report", path)
	if code != 0 {
		t.Fatalf("sched-compare exited %d: %s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != stdout {
		t.Fatalf("-report holds\n%s\nbut the command printed\n%s", data, stdout)
	}
}

// TestRunServeLoadFlags drives a live server and checks the serve-load
// flags reach the load configuration the report records.
func TestRunServeLoadFlags(t *testing.T) {
	docs := corpus.MustGenerate(corpus.CorpusB(corpus.Small))
	db, vocab := text.ToDB(docs, nil)
	result, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: 2}, mining.Options{MinSupCount: 3, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{Replicas: 2, CacheSize: 256})
	if _, err := srv.Swap(rules.ToWordRules(rules.Generate(result.Result.Frequent, db.Len(), 0.5), vocab.Word), "cmd test"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler(obs.New(obs.Config{})))
	defer ts.Close()

	path := filepath.Join(t.TempDir(), "load.json")
	code, stdout, stderr := runArgs("serve-load", "-url", ts.URL+"/", "-clients", "3", "-requests", "60",
		"-zipf-s", "1.5", "-limit", "2", "-seed", "7", "-report", path)
	if code != 0 {
		t.Fatalf("serve-load exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote "+path) {
		t.Errorf("no report line in\n%s", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchharness.LoadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.BaseURL != ts.URL || rep.Clients != 3 || rep.RequestsPer != 60 || rep.ZipfS != 1.5 || rep.Seed != 7 {
		t.Fatalf("report records %s, %d clients, %d requests, zipf-s %g, seed %d; want the flags' values",
			rep.BaseURL, rep.Clients, rep.RequestsPer, rep.ZipfS, rep.Seed)
	}
	if rep.Cold.Errors+rep.Warm.Errors != 0 {
		t.Fatalf("load saw errors: %s", data)
	}
}
