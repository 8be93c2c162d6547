// serveload.go is the load-test driver behind pmihp-bench serve-load:
// it hammers a running pmihp-serve daemon with concurrent clients whose
// query heads follow a Zipf distribution (hot heads dominate, like real
// query logs), and reports QPS, latency quantiles, and error accounting
// for a cold-cache and a warm-cache phase. The warm phase replays the
// cold phase's exact request sequence (same seeds), so the difference
// between the two isolates the server-side cache.
package benchharness

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
)

// LoadConfig configures one load run against a live daemon.
type LoadConfig struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8397".
	BaseURL string
	// Clients is the number of concurrent request loops (default 8).
	Clients int
	// Requests is the total request count per phase, split across clients
	// (default 2000).
	Requests int
	// Limit is the per-word term limit sent with every query (default 5).
	Limit int
	// ZipfS and ZipfV shape the head-popularity distribution
	// (math/rand.NewZipf; defaults 1.2 and 1.0 — s must be > 1, v >= 1).
	ZipfS, ZipfV float64
	// Heads is the query universe. When nil the driver discovers it from
	// the daemon's /admin/heads endpoint, ordered hottest-first, which
	// makes the Zipf head also the daemon's densest bucket.
	Heads []string
	// Seed makes the request sequence deterministic; both phases replay
	// the same sequence.
	Seed int64
	// Timeout bounds each request on the client side (default 5s).
	Timeout time.Duration
}

func (c *LoadConfig) fill() {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Requests <= 0 {
		c.Requests = 2000
	}
	if c.Limit == 0 {
		c.Limit = 5
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.ZipfV < 1 {
		c.ZipfV = 1.0
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
}

// LoadPhase is the measurement of one pass over the request sequence.
type LoadPhase struct {
	Name             string  `json:"name"`
	Requests         int     `json:"requests"`
	Errors           int     `json:"errors"`
	DeadlineExceeded int     `json:"deadline_exceeded"`
	Seconds          float64 `json:"seconds"`
	QPS              float64 `json:"qps"`
	P50Ms            float64 `json:"p50_ms"`
	P95Ms            float64 `json:"p95_ms"`
	P99Ms            float64 `json:"p99_ms"`
	// Cache deltas are scraped from the daemon's /snapshot gauges around
	// the phase, so they are server-side truth, not client inference.
	// Absent (all zero) when the daemon runs without an obs recorder.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheCoalesced int64 `json:"cache_coalesced"`
}

// LoadReport is the full serve-load result, written as JSON.
type LoadReport struct {
	SchemaVersion int        `json:"schema_version"`
	BaseURL       string     `json:"base_url"`
	Clients       int        `json:"clients"`
	RequestsPer   int        `json:"requests_per_phase"`
	ZipfS         float64    `json:"zipf_s"`
	Seed          int64      `json:"seed"`
	Heads         int        `json:"heads"`
	Generation    int64      `json:"generation"`
	Cold          *LoadPhase `json:"cold"`
	Warm          *LoadPhase `json:"warm"`
}

// fetchHeads discovers the query universe from /admin/heads.
func fetchHeads(client *http.Client, baseURL string) ([]string, int64, error) {
	resp, err := client.Get(baseURL + "/admin/heads?limit=0")
	if err != nil {
		return nil, 0, fmt.Errorf("discovering heads: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("discovering heads: %s from /admin/heads", resp.Status)
	}
	var body struct {
		Generation int64 `json:"generation"`
		Heads      []struct {
			Word string `json:"word"`
		} `json:"heads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, 0, fmt.Errorf("decoding /admin/heads: %w", err)
	}
	heads := make([]string, len(body.Heads))
	for i, h := range body.Heads {
		heads[i] = h.Word
	}
	return heads, body.Generation, nil
}

// cacheCounters scrapes the server-side cache gauges from /snapshot. A
// daemon serving without an obs recorder has no /snapshot; that is not
// an error, the phase just reports zero deltas.
func cacheCounters(client *http.Client, baseURL string) (hits, misses, coalesced int64, ok bool) {
	resp, err := client.Get(baseURL + "/snapshot")
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			resp.Body.Close()
		}
		return 0, 0, 0, false
	}
	defer resp.Body.Close()
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, 0, 0, false
	}
	return snap.Gauges["serve_cache_hits_total"],
		snap.Gauges["serve_cache_misses_total"],
		snap.Gauges["serve_cache_coalesced_total"], true
}

// quantile returns the q-th latency from the sorted sample, in
// milliseconds, by the nearest-rank method.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// runPhase replays the request sequence once: each client walks its own
// deterministic Zipf stream over the head universe, so the same seed
// yields the same requests in the same per-client order.
func runPhase(cfg *LoadConfig, client *http.Client, heads []string, name string) (*LoadPhase, error) {
	p := &LoadPhase{Name: name}
	preH, preM, preC, scraped := cacheCounters(client, cfg.BaseURL)

	perClient := cfg.Requests / cfg.Clients
	if perClient == 0 {
		perClient = 1
	}
	type clientResult struct {
		lat              []time.Duration
		errors, deadline int
	}
	results := make([]clientResult, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Seed per client, not per phase: the warm phase reuses the
			// same seeds and therefore replays the same head sequence.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
			zipf := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(len(heads)-1))
			r := &results[c]
			r.lat = make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				head := heads[zipf.Uint64()]
				target := fmt.Sprintf("%s/expand?q=%s&limit=%d", cfg.BaseURL, url.QueryEscape(head), cfg.Limit)
				t0 := time.Now()
				resp, err := client.Get(target)
				r.lat = append(r.lat, time.Since(t0))
				if err != nil {
					r.errors++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
				case resp.StatusCode == http.StatusGatewayTimeout:
					r.deadline++
				default:
					r.errors++
				}
			}
		}(c)
	}
	wg.Wait()
	p.Seconds = time.Since(start).Seconds()

	var all []time.Duration
	for _, r := range results {
		all = append(all, r.lat...)
		p.Errors += r.errors
		p.DeadlineExceeded += r.deadline
	}
	p.Requests = len(all)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p.P50Ms = quantile(all, 0.50)
	p.P95Ms = quantile(all, 0.95)
	p.P99Ms = quantile(all, 0.99)
	if p.Seconds > 0 {
		p.QPS = float64(p.Requests) / p.Seconds
	}
	if postH, postM, postC, ok := cacheCounters(client, cfg.BaseURL); ok && scraped {
		p.CacheHits = postH - preH
		p.CacheMisses = postM - preM
		p.CacheCoalesced = postC - preC
	}
	return p, nil
}

// RunLoad drives the daemon at cfg.BaseURL through a cold-cache and a
// warm-cache phase of identical request sequences and returns the
// report. log, when non-nil, receives one line per phase.
func RunLoad(cfg LoadConfig, log io.Writer) (*LoadReport, error) {
	cfg.fill()
	client := &http.Client{Timeout: cfg.Timeout}
	heads := cfg.Heads
	var gen int64
	if len(heads) == 0 {
		var err error
		heads, gen, err = fetchHeads(client, cfg.BaseURL)
		if err != nil {
			return nil, err
		}
	}
	if len(heads) == 0 {
		return nil, fmt.Errorf("serve-load: daemon at %s serves no heads", cfg.BaseURL)
	}

	rep := &LoadReport{
		SchemaVersion: 1,
		BaseURL:       cfg.BaseURL,
		Clients:       cfg.Clients,
		RequestsPer:   cfg.Requests,
		ZipfS:         cfg.ZipfS,
		Seed:          cfg.Seed,
		Heads:         len(heads),
		Generation:    gen,
	}
	for _, name := range []string{"cold", "warm"} {
		p, err := runPhase(&cfg, client, heads, name)
		if err != nil {
			return nil, err
		}
		if name == "cold" {
			rep.Cold = p
		} else {
			rep.Warm = p
		}
		if log != nil {
			fmt.Fprintf(log, "%-5s %6d req %9.0f qps  p50 %7.3f ms  p95 %7.3f ms  p99 %7.3f ms  %d errors  %d deadline  cache %d/%d hit/miss\n",
				p.Name, p.Requests, p.QPS, p.P50Ms, p.P95Ms, p.P99Ms, p.Errors, p.DeadlineExceeded, p.CacheHits, p.CacheMisses)
		}
	}
	return rep, nil
}

// WriteJSON writes the load report, indented, to w.
func (r *LoadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
