package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain compares two saved reports — files holding perfbench's
// standard output, or written by --report. It flags every difference in
// the reports' stamps (environment, seed, inputs, serve load settings),
// then prints each metric of both reports with its relative change. It
// exits 1 when the stamps differ, 2 on a usage or read error.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD NEW")
		return 2
	}
	var reps [2]*report
	for i, path := range args {
		r, err := readReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		reps[i] = r
	}
	diffs := stampDiffs(reps[0].Stamp, reps[1].Stamp)
	for _, d := range diffs {
		fmt.Fprintln(w, "STAMP DIFFERS", d)
	}
	names := make(map[string]bool)
	for _, r := range reps {
		for n := range r.Result.Metrics {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		a, okA := reps[0].Result.Metrics[n]
		b, okB := reps[1].Result.Metrics[n]
		switch {
		case !okA || !okB:
			fmt.Fprintf(w, "%-28s only in %s\n", n, map[bool]string{true: args[0], false: args[1]}[okA])
		case a.Value != 0:
			fmt.Fprintf(w, "%-28s %14.6g %14.6g %+8.2f%% %s\n", n, a.Value, b.Value, 100*(b.Value-a.Value)/a.Value, a.Unit)
		default:
			fmt.Fprintf(w, "%-28s %14.6g %14.6g %9s %s\n", n, a.Value, b.Value, "", a.Unit)
		}
	}
	if len(diffs) > 0 {
		return 1
	}
	return 0
}

// readReport returns the report line of a saved run.
func readReport(path string) (*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line struct {
			Report *report `json:"perfbench_report"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Report != nil {
			return line.Report, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return nil, fmt.Errorf("%s: no perfbench report line", path)
}

// stampDiffs lists the stamp fields whose values differ, as
// "field: old -> new".
func stampDiffs(a, b stamp) []string {
	fa, fb := flatStamp(a), flatStamp(b)
	keys := make(map[string]bool)
	for k := range fa {
		keys[k] = true
	}
	for k := range fb {
		keys[k] = true
	}
	var out []string
	for k := range keys {
		if fa[k] != fb[k] {
			out = append(out, fmt.Sprintf("%s: %s -> %s", k, orNone(fa[k]), orNone(fb[k])))
		}
	}
	sort.Strings(out)
	return out
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

// flatStamp renders every stamp field, nested ones as dotted paths.
func flatStamp(s stamp) map[string]string {
	b, _ := json.Marshal(s) // a stamp holds only marshalable values
	var v map[string]any
	json.Unmarshal(b, &v)
	out := make(map[string]string)
	var walk func(prefix string, x any)
	walk = func(prefix string, x any) {
		if m, ok := x.(map[string]any); ok {
			for k, y := range m {
				walk(prefix+"."+k, y)
			}
			return
		}
		enc, _ := json.Marshal(x)
		out[prefix[1:]] = string(enc)
	}
	walk("", v)
	return out
}
