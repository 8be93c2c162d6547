package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs runs the command and returns its exit status and both streams.
func runArgs(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunUsageErrors: a missing or unknown mode, a flag of the other
// mode, a bad flag value and a trailing argument all exit 2 before any
// corpus is generated; no mode quietly drops what it was given.
func TestRunUsageErrors(t *testing.T) {
	const undefined = "flag provided but not defined"
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{nil, "usage:"},
		{[]string{"news"}, `unknown mode "news"`},
		// The single-flag-set spellings, which mixed both modes' flags.
		{[]string{"-corpus", "b", "-scale", "small", "-vocab", "50", "-days", "2", "-seed", "9"}, "usage:"},
		{[]string{"-docs", "50", "-corpus", "c", "-scale", "paper"}, "usage:"},
		// Flags that belong to the other mode.
		{[]string{"preset", "-corpus", "b", "-scale", "small", "-vocab", "50", "-days", "2", "-seed", "9"}, undefined},
		{[]string{"custom", "-docs", "50", "-corpus", "c", "-scale", "paper"}, undefined},
		// Bad values and operands.
		{[]string{"preset", "-scale", "huge"}, "huge"},
		{[]string{"preset", "-corpus", "z"}, `unknown corpus "z"`},
		{[]string{"custom", "-docs", "0"}, "Docs=0"},
		{[]string{"custom", "-skew", "2"}, "Skew=2"},
		{[]string{"preset", "b"}, "usage:"},
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
}

// TestRunPreset: the preset mode reports the preset's statistics and
// dumps one line per document.
func TestRunPreset(t *testing.T) {
	code, stdout, stderr := runArgs("preset", "-corpus", "b", "-scale", "small", "-dump")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "96 docs") || !strings.Contains(stderr, "1881 unique words") {
		t.Errorf("stderr %q does not report corpus B's 96 docs and 1881 words", stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 96 || !strings.HasPrefix(lines[0], "0 ") || !strings.HasPrefix(lines[95], "95 ") {
		t.Errorf("dump has %d lines, want 96 numbered 0..95", len(lines))
	}
}

// TestRunCustom: the custom mode builds the corpus its flags describe and
// saves it in the line format.
func TestRunCustom(t *testing.T) {
	out := filepath.Join(t.TempDir(), "docs.txt")
	code, stdout, stderr := runArgs("custom", "-docs", "50", "-vocab", "400", "-days", "5", "-doclen", "20", "-seed", "3", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("no -dump, yet stdout got %q", stdout)
	}
	if !strings.Contains(stderr, "corpus custom: 50 docs over 5 days") {
		t.Errorf("stderr %q does not report the custom corpus", stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 50 {
		t.Errorf("%s has %d lines, want 50", out, n)
	}
}
