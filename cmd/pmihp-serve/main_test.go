package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const testRulesJSON = `[
  {"antecedent":["stock"],"consequent":["market"],"support":12,"confidence":0.8},
  {"antecedent":["trade"],"consequent":["market"],"support":9,"confidence":0.75},
  {"antecedent":["market"],"consequent":["stock"],"support":12,"confidence":0.7}
]`

func writeRules(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rules.json")
	if err := os.WriteFile(path, []byte(testRulesJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseFlagsValidation(t *testing.T) {
	for _, args := range [][]string{
		{},                            // no -rules
		{"-rules", "r.json", "-mine"}, // the removed startup miner
		{"-bogus"},                    // unknown flag
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
	o, err := parseFlags([]string{"-rules", "r.json", "-replicas", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if o.rules != "r.json" || o.replicas != 2 || o.deadline != 100*time.Millisecond {
		t.Fatalf("parsed %+v", o)
	}
}

// TestLoadInitialErrors requires the daemon to refuse to start when the
// -rules file it would serve as generation 1 is missing or malformed. The
// context is already canceled, so a daemon that started anyway returns
// nil at once instead of serving.
func TestLoadInitialErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not rules"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/does/not/exist.json", bad} {
		if err := run([]string{"-rules", path, "-addr", "127.0.0.1:0"}, io.Discard, ctx); err == nil {
			t.Errorf("rules file %s accepted", path)
		}
	}
}

// syncWriter collects daemon output so the test can discover the bound
// address from the startup line.
type syncWriter struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// baseURL waits for the "serving on http://..." line and extracts it.
func (w *syncWriter) baseURL(t *testing.T) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		out := w.String()
		if i := strings.Index(out, "serving on http://"); i >= 0 {
			rest := out[i+len("serving on "):]
			return strings.Fields(rest)[0]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never announced its address; output:\n%s", w.String())
	return ""
}

// TestRunServesAndShutsDown boots the daemon on a free port from a rules
// export, exercises the query surface end to end over real HTTP, then
// cancels the context and requires a clean shutdown.
func TestRunServesAndShutsDown(t *testing.T) {
	path := writeRules(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-rules", path, "-addr", "127.0.0.1:0", "-replicas", "2"}, &out, ctx)
	}()
	base := out.baseURL(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/expand?q=market&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var eb struct {
		Generation int64           `json:"generation"`
		Expansions json.RawMessage `json:"expansions"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("expand body %s: %v", body, err)
	}
	if eb.Generation != 1 || !strings.Contains(string(eb.Expansions), `"stock"`) {
		t.Fatalf("expand body %s", body)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "pmihp_serve_queries_total") {
		t.Fatalf("metrics missing serve gauges:\n%s", metrics)
	}

	// Swap over HTTP with a shrunk rule set; the daemon must advance the
	// generation without restarting.
	resp, err = http.Post(base+"/admin/swap", "application/json",
		strings.NewReader(`[{"antecedent":["bond"],"consequent":["yield"],"support":5,"confidence":0.9}]`))
	if err != nil {
		t.Fatal(err)
	}
	swapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(swapBody), `"generation": 2`) &&
		!strings.Contains(string(swapBody), `"generation":2`) {
		t.Fatalf("swap = %d: %s", resp.StatusCode, swapBody)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Fatalf("missing shutdown line in output:\n%s", out.String())
	}
}
