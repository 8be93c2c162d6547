package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmihp/internal/obs"
	"pmihp/internal/rules"
)

// get issues a request against the handler without a network listener,
// so tests spawn no server goroutines.
func get(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func post(h http.Handler, target string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, body))
	return rec
}

// expandBody mirrors the /expand response envelope.
type expandBody struct {
	Generation int64           `json:"generation"`
	Expansions json.RawMessage `json:"expansions"`
}

type rulesBody struct {
	Generation int64           `json:"generation"`
	Head       string          `json:"head"`
	Rules      json.RawMessage `json:"rules"`
}

func loadedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	if _, err := s.Swap(fixture(t).ws, "test fixture"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServedExpansionsByteIdentical is the end-to-end leg of the gate:
// the /expand payload over HTTP must be byte-identical to the offline
// Expander's answer for every swept query, through the cache (each query
// runs twice) and across single- and multi-word forms.
func TestServedExpansionsByteIdentical(t *testing.T) {
	fx := fixture(t)
	s := loadedServer(t, Config{Replicas: 4})
	h := s.Handler(nil)
	check := func(limit int, words ...string) {
		t.Helper()
		target := "/expand?limit=" + fmt.Sprint(limit)
		for _, w := range words {
			target += "&q=" + url.QueryEscape(w)
		}
		for pass := 0; pass < 2; pass++ { // second pass rides the cache
			rr := get(h, target)
			if rr.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", target, rr.Code, rr.Body.String())
			}
			var body expandBody
			if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s: %v", target, err)
			}
			want := mustJSON(t, fromSearch(fx.exp.Expand(limit, words...)))
			if !bytes.Equal(bytes.TrimSpace(body.Expansions), want) {
				t.Fatalf("%s:\nserved  %s\noffline %s", target, body.Expansions, want)
			}
		}
	}
	for _, w := range fx.words {
		check(3, w)
	}
	check(0, fx.words[0], fx.words[len(fx.words)/2], "zzz-unknown")
	check(1, fx.words...)

	hits, misses, _ := s.CacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("cache never exercised: hits=%d misses=%d", hits, misses)
	}
}

func TestServedRulesByteIdentical(t *testing.T) {
	fx := fixture(t)
	s := loadedServer(t, Config{Replicas: 2})
	h := s.Handler(nil)
	ix, err := BuildIndex(fx.ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, hd := range ix.Heads(0) {
		rr := get(h, "/rules?head="+url.QueryEscape(hd.Word)+"&limit=0")
		if rr.Code != http.StatusOK {
			t.Fatalf("head %q: status %d", hd.Word, rr.Code)
		}
		var body rulesBody
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		id, _ := fx.vocab.ID(hd.Word)
		want := mustJSON(t, rules.ToWordRules(rules.WithConsequent(fx.rs, id), fx.vocab.Word))
		if !bytes.Equal(bytes.TrimSpace(body.Rules), want) {
			t.Fatalf("head %q:\nserved  %s\noffline %s", hd.Word, body.Rules, want)
		}
	}
}

func TestHealthzLifecycle(t *testing.T) {
	s := NewServer(Config{Replicas: 1})
	h := s.Handler(nil)
	if rr := get(h, "/healthz"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("unloaded healthz = %d", rr.Code)
	}
	if rr := get(h, "/expand?q=word"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("unloaded expand = %d", rr.Code)
	}
	if _, err := s.Swap(fixture(t).ws, "test"); err != nil {
		t.Fatal(err)
	}
	rr := get(h, "/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("loaded healthz = %d", rr.Code)
	}
	var body healthBody
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Generation != 1 || body.Stats == nil || body.Stats.Rules == 0 {
		t.Fatalf("healthz body %+v", body)
	}
}

func TestBadRequests(t *testing.T) {
	s := loadedServer(t, Config{Replicas: 1})
	h := s.Handler(nil)
	for _, target := range []string{"/expand", "/expand?q=w&limit=-1", "/expand?q=w&limit=x", "/rules", "/rules?head=two+words"} {
		if rr := get(h, target); rr.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", target, rr.Code)
		}
	}
	if rr := get(h, "/admin/swap"); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /admin/swap = %d", rr.Code)
	}
	if rr := post(h, "/admin/swap", strings.NewReader("not json")); rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("bad swap body = %d", rr.Code)
	}
	if errs := s.errorCount.Load(); errs == 0 {
		t.Error("error counter never moved")
	}
}

func TestDeadlineExceeded(t *testing.T) {
	// A 1ns deadline is always already expired by the first check, so
	// every query must answer 504 and count as deadline-exceeded — and
	// still release its pinned generation.
	s := loadedServer(t, Config{Replicas: 1, Deadline: time.Nanosecond})
	h := s.Handler(nil)
	for i := 0; i < 3; i++ {
		if rr := get(h, "/expand?q=word"); rr.Code != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504", rr.Code)
		}
	}
	if n := s.deadlineExceeded.Load(); n != 3 {
		t.Fatalf("deadline counter = %d, want 3", n)
	}
	if g := s.Generation(); g.inflight.Load() != 0 {
		t.Fatalf("generation still pinned: %d", g.inflight.Load())
	}
}

// TestAdminSwapIgnoresPath requires /admin/swap to take the rule set
// from the request body only: naming a valid rules file on the server's
// disk with ?path= and sending no body must answer 422 and leave the
// served generation where it was.
func TestAdminSwapIgnoresPath(t *testing.T) {
	fx := fixture(t)
	var buf bytes.Buffer
	if err := rules.WriteJSON(&buf, fx.rs, fx.vocab.Word); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rules.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := loadedServer(t, Config{Replicas: 1})
	rr := post(s.Handler(nil), "/admin/swap?path="+url.QueryEscape(path), nil)
	if rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("swap with ?path= = %d: %s", rr.Code, rr.Body.String())
	}
	if id := s.Generation().ID; id != 1 {
		t.Fatalf("generation %d after a refused swap, want 1", id)
	}
}

func TestAdminSwapAndHeads(t *testing.T) {
	fx := fixture(t)
	s := loadedServer(t, Config{Replicas: 1})
	h := s.Handler(nil)

	rr := get(h, "/admin/heads?limit=5")
	if rr.Code != http.StatusOK {
		t.Fatalf("heads = %d", rr.Code)
	}
	var hb headsBody
	if err := json.Unmarshal(rr.Body.Bytes(), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Generation != 1 || len(hb.Heads) == 0 || len(hb.Heads) > 5 {
		t.Fatalf("heads body %+v", hb)
	}

	// Swap via POST body; the generation must advance and queries must
	// immediately serve the new id.
	var buf bytes.Buffer
	if err := rules.WriteJSON(&buf, fx.rs, fx.vocab.Word); err != nil {
		t.Fatal(err)
	}
	rr = post(h, "/admin/swap", &buf)
	if rr.Code != http.StatusOK {
		t.Fatalf("swap = %d: %s", rr.Code, rr.Body.String())
	}
	var sb swapBody
	if err := json.Unmarshal(rr.Body.Bytes(), &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Generation != 2 || sb.Stats.Rules == 0 {
		t.Fatalf("swap body %+v", sb)
	}
	var eb expandBody
	rr = get(h, "/expand?q="+url.QueryEscape(fx.words[0]))
	if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Generation != 2 {
		t.Fatalf("expand served generation %d after swap", eb.Generation)
	}
	if got := s.UndrainedOld(); got != 0 {
		t.Fatalf("%d undrained generations with no queries in flight", got)
	}
}

func TestMetricsExposure(t *testing.T) {
	fx := fixture(t)
	rec := obs.New(obs.Config{})
	s := loadedServer(t, Config{Replicas: 2})
	h := s.Handler(rec)
	for i := 0; i < 4; i++ {
		get(h, "/expand?q="+url.QueryEscape(fx.words[i%len(fx.words)]))
	}
	rr := get(h, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rr.Code)
	}
	text := rr.Body.String()
	for _, want := range []string{
		"pmihp_serve_queries_total 4",
		"pmihp_serve_generation_id 1",
		"pmihp_serve_index_bytes_held",
		"pmihp_serve_cache_misses_total",
		"pmihp_serve_latency_p99_seconds",
		"pmihp_serve_qps",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	rr = get(h, "/snapshot")
	var snap obs.Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gauges["serve_queries_total"] != 4 {
		t.Fatalf("snapshot gauges %+v", snap.Gauges)
	}
	if snap.Gauges["serve_index_bytes_held"] != s.Generation().Index.MemBytes() {
		t.Fatal("bytes_held gauge does not match the index")
	}
}

func TestLRUCacheAndFlight(t *testing.T) {
	c := newLRU(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	if v, ok := c.get("a"); !ok || string(v) != "1" {
		t.Fatal("miss on live key")
	}
	c.put("c", []byte("3")) // evicts b (a was touched)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
	if c.hits.Load() != 2 || c.misses.Load() != 1 {
		t.Fatalf("hits=%d misses=%d", c.hits.Load(), c.misses.Load())
	}

	// A nil cache (disabled) is inert.
	var nilCache *lruCache
	nilCache.put("x", nil)
	if _, ok := nilCache.get("x"); ok {
		t.Fatal("nil cache hit")
	}
}
