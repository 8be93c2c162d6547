package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmihp/internal/obs"
	"pmihp/internal/rules"
)

// Config configures a Server.
type Config struct {
	// Replicas is the number of read shards: each query hashes to one
	// replica, which owns a private cache and singleflight group so hot
	// heads contend only within their shard. Every replica reads the
	// same generation through a plain atomic pointer — reads take no
	// locks. Defaults to GOMAXPROCS.
	Replicas int
	// CacheSize is the per-replica LRU capacity in entries (cached
	// marshaled payloads). 0 selects the default (4096); negative
	// disables caching.
	CacheSize int
	// Deadline bounds each query via its request context; 0 disables.
	Deadline time.Duration
	// DefaultLimit is the per-word term limit applied when a query does
	// not pass one. 0 selects the default (10). A request's explicit
	// limit=0 means unlimited.
	DefaultLimit int
}

const (
	defaultCacheSize = 4096
	defaultLimit     = 10
)

// Server answers expansion and association queries over hot-swappable
// rule-set generations. The zero Server is not usable; use NewServer.
type Server struct {
	cfg      Config
	gen      atomic.Pointer[Generation] // authoritative current generation
	replicas []*replica
	nextID   atomic.Int64
	swapMu   sync.Mutex // serializes swaps (not queries)

	oldMu   sync.Mutex
	oldGens []*Generation // retired, possibly not yet drained

	queries          atomic.Int64
	errorCount       atomic.Int64
	deadlineExceeded atomic.Int64
	notReady         atomic.Int64
	swaps            atomic.Int64
	hist             latencyHist

	scrapeMu    sync.Mutex
	lastScrape  time.Time
	lastQueries int64
	started     time.Time
}

// replica is one read shard: a plain pointer to the current generation
// plus shard-private cache state.
type replica struct {
	gen   atomic.Pointer[Generation]
	cache *lruCache
	sf    *flightGroup
}

// NewServer returns a Server with no generation loaded; /healthz reports
// loading and queries answer 503 until the first Swap.
func NewServer(cfg Config) *Server {
	if cfg.Replicas <= 0 {
		cfg.Replicas = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.CacheSize == 0:
		cfg.CacheSize = defaultCacheSize
	case cfg.CacheSize < 0:
		cfg.CacheSize = 0 // disabled: replicas get nil caches
	}
	if cfg.DefaultLimit == 0 {
		cfg.DefaultLimit = defaultLimit
	}
	s := &Server{cfg: cfg, started: time.Now()}
	s.lastScrape = s.started
	for i := 0; i < cfg.Replicas; i++ {
		rep := &replica{sf: newFlightGroup()}
		if cfg.CacheSize > 0 {
			rep.cache = newLRU(cfg.CacheSize)
		}
		s.replicas = append(s.replicas, rep)
	}
	return s
}

// Swap validates and installs a new generation built from the rule set,
// then retires the previous one. New queries see the new generation
// immediately; queries already pinned to the old one finish against it,
// and the old generation reports drained once the last of them releases
// it. Zero queries are dropped by a swap. Retired generations that have
// drained are forgotten here, so a server that is swapped but never
// scraped holds only the ones still in use.
func (s *Server) Swap(ws []rules.WordRule, source string) (*Generation, error) {
	ix, err := BuildIndex(ws)
	if err != nil {
		return nil, err
	}
	if err := ix.Validate(); err != nil {
		return nil, fmt.Errorf("serve: refusing to swap invalid index: %w", err)
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	g := newGeneration(s.nextID.Add(1), source, ix)
	old := s.gen.Swap(g)
	for _, rep := range s.replicas {
		rep.gen.Store(g)
	}
	if old != nil {
		old.retire()
		s.oldMu.Lock()
		s.oldGens = append(s.oldGens, old)
		s.pruneOld()
		s.oldMu.Unlock()
	}
	s.swaps.Add(1)
	return g, nil
}

// SwapFromFile loads a WriteJSON rule export and swaps it in.
func (s *Server) SwapFromFile(path string) (*Generation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	ws, err := rules.ParseJSON(f)
	if err != nil {
		return nil, err
	}
	return s.Swap(ws, path)
}

// Generation returns the currently served generation, or nil before the
// first swap. The returned generation is not pinned; it is a snapshot
// for reporting, not for reading the index under.
func (s *Server) Generation() *Generation { return s.gen.Load() }

// UndrainedOld prunes the retired-generation list and returns how many
// retired generations still have queries in flight.
func (s *Server) UndrainedOld() int {
	s.oldMu.Lock()
	defer s.oldMu.Unlock()
	s.pruneOld()
	return len(s.oldGens)
}

// pruneOld drops drained generations from the retired list, clearing the
// vacated slots so their indexes become garbage. Callers hold oldMu.
func (s *Server) pruneOld() {
	live := s.oldGens[:0]
	for _, g := range s.oldGens {
		if !g.drainedNow() {
			live = append(live, g)
		}
	}
	for i := len(live); i < len(s.oldGens); i++ {
		s.oldGens[i] = nil
	}
	s.oldGens = live
}

// CacheStats sums the replica cache and singleflight counters.
func (s *Server) CacheStats() (hits, misses, coalesced int64) {
	for _, rep := range s.replicas {
		if rep.cache != nil {
			hits += rep.cache.hits.Load()
			misses += rep.cache.misses.Load()
		}
		coalesced += rep.sf.coalesced.Load()
	}
	return hits, misses, coalesced
}

// latencyHist is a lock-free log-spaced latency histogram: bucket 0
// counts queries under 1 microsecond, and bucket i > 0 those with latency
// in [2^(i-1), 2^i) microseconds. Quantiles report 2^i µs, the upper bound
// of the covering bucket — coarse (a factor of two) but allocation-free,
// monotone, and cheap enough for the hot path.
type latencyHist struct {
	buckets [32]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

func (h *latencyHist) record(d time.Duration) {
	us := d.Microseconds()
	i := bits.Len64(uint64(us)) // 0µs→0, 1µs→1, 2-3µs→2, ...
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// quantile returns the q-quantile latency in seconds (0 when empty).
func (h *latencyHist) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			return float64(uint64(1)<<uint(i)) * 1e-6
		}
	}
	return float64(uint64(1)<<uint(len(h.buckets)-1)) * 1e-6
}

// PublishObs pushes the serving gauges into the recorder: query and
// error totals, cache hit/miss/coalesced counters, the generation id
// and its index bytes_held, retired-but-undrained generations, QPS over
// the window since the previous publish, and the latency quantiles. The
// metrics handler calls it before every scrape, so /metrics and
// /snapshot always expose current values.
func (s *Server) PublishObs(rec *obs.Recorder) {
	if !rec.Enabled() {
		return
	}
	q := s.queries.Load()
	rec.SetGauge("serve_queries_total", q)
	rec.SetGauge("serve_errors_total", s.errorCount.Load())
	rec.SetGauge("serve_deadline_exceeded_total", s.deadlineExceeded.Load())
	rec.SetGauge("serve_not_ready_total", s.notReady.Load())
	rec.SetGauge("serve_swaps_total", s.swaps.Load())
	hits, misses, coalesced := s.CacheStats()
	rec.SetGauge("serve_cache_hits_total", hits)
	rec.SetGauge("serve_cache_misses_total", misses)
	rec.SetGauge("serve_cache_coalesced_total", coalesced)
	rec.SetGauge("serve_generations_undrained", int64(s.UndrainedOld()))
	if total := hits + misses; total > 0 {
		rec.SetFloatGauge("serve_cache_hit_rate", float64(hits)/float64(total))
	}
	if g := s.gen.Load(); g != nil {
		rec.SetGauge("serve_generation_id", g.ID)
		rec.SetGauge("serve_index_bytes_held", g.Index.MemBytes())
		rec.SetGauge("serve_index_rules", int64(g.Index.Stats().Rules))
	}
	rec.SetFloatGauge("serve_latency_p50_seconds", s.hist.quantile(0.50))
	rec.SetFloatGauge("serve_latency_p95_seconds", s.hist.quantile(0.95))
	rec.SetFloatGauge("serve_latency_p99_seconds", s.hist.quantile(0.99))

	s.scrapeMu.Lock()
	now := time.Now()
	if dt := now.Sub(s.lastScrape).Seconds(); dt > 0 {
		rec.SetFloatGauge("serve_qps", float64(q-s.lastQueries)/dt)
	}
	s.lastScrape, s.lastQueries = now, q
	s.scrapeMu.Unlock()
}

// Handler returns the serving mux:
//
//	/expand?q=w[&q=w2...][&limit=N]   thesaurus expansions per query word
//	/rules?head=w[&limit=N]           full rules with the head as consequent
//	/healthz                          readiness + current generation stats
//	/admin/swap   (POST)              load+validate+swap a new generation
//	/admin/heads[?limit=N]            heads by popularity (load-test aim)
//	/metrics, /snapshot, /debug/...   the obs endpoint (when rec != nil),
//	                                  refreshed with serving gauges per scrape
//
// Like the obs endpoint, the mux is unauthenticated — /admin/swap reads
// server-local files — and must only bind trusted interfaces.
func (s *Server) Handler(rec *obs.Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/expand", func(w http.ResponseWriter, r *http.Request) { s.serveExpand(w, r) })
	mux.HandleFunc("/rules", func(w http.ResponseWriter, r *http.Request) { s.serveRules(w, r) })
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { s.serveHealthz(w, r) })
	mux.HandleFunc("/admin/swap", func(w http.ResponseWriter, r *http.Request) { s.serveSwap(w, r) })
	mux.HandleFunc("/admin/heads", func(w http.ResponseWriter, r *http.Request) { s.serveHeads(w, r) })
	if rec.Enabled() {
		obsHandler := rec.Handler()
		wrap := func(w http.ResponseWriter, r *http.Request) {
			s.PublishObs(rec)
			obsHandler.ServeHTTP(w, r)
		}
		mux.HandleFunc("/metrics", wrap)
		mux.HandleFunc("/snapshot", wrap)
		mux.Handle("/debug/", obsHandler)
	}
	return mux
}

// writeJSON writes v as the response body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// queryWords extracts the query words: every q parameter, split on
// whitespace and commas, preserving order.
func queryWords(r *http.Request) []string {
	var words []string
	for _, q := range r.URL.Query()["q"] {
		for _, w := range strings.FieldsFunc(q, func(c rune) bool { return c == ' ' || c == '\t' || c == ',' }) {
			words = append(words, w)
		}
	}
	return words
}

// parseLimit resolves the limit parameter: absent selects the server
// default; an explicit 0 means unlimited; negatives are rejected.
func (s *Server) parseLimit(r *http.Request) (int, error) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return s.cfg.DefaultLimit, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad limit %q", v)
	}
	return n, nil
}

// query runs one cached, coalesced, deadline-bounded index computation:
// it pins the current generation of the query's replica, consults the
// replica cache, and computes (once per concurrent key) otherwise. The
// compute function receives the pinned generation and returns the
// marshaled payload to cache and serve.
func (s *Server) query(w http.ResponseWriter, r *http.Request, kind, key string,
	compute func(g *Generation) ([]byte, error),
	respond func(g *Generation, payload []byte)) {
	start := time.Now()
	s.queries.Add(1)
	defer func() { s.hist.record(time.Since(start)) }()

	ctx := r.Context()
	if s.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}

	rep := s.replicas[fnv64a(key)%uint64(len(s.replicas))]
	g := acquireFrom(&rep.gen)
	if g == nil {
		s.notReady.Add(1)
		s.errorCount.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no generation loaded"})
		return
	}
	defer g.release()

	if err := ctx.Err(); err != nil {
		s.deadlineExceeded.Add(1)
		s.errorCount.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline exceeded"})
		return
	}

	cacheKey := fmt.Sprintf("%s\x00%d\x00%s", kind, g.ID, key)
	if payload, ok := rep.cache.get(cacheKey); ok {
		respond(g, payload)
		return
	}
	payload, err := rep.sf.do(ctx, cacheKey, func() ([]byte, error) {
		p, err := compute(g)
		if err == nil {
			rep.cache.put(cacheKey, p)
		}
		return p, err
	})
	if err != nil {
		s.errorCount.Add(1)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.deadlineExceeded.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline exceeded"})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	if err := ctx.Err(); err != nil {
		s.deadlineExceeded.Add(1)
		s.errorCount.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline exceeded"})
		return
	}
	respond(g, payload)
}

// serveExpand answers GET /expand?q=...&limit=N.
func (s *Server) serveExpand(w http.ResponseWriter, r *http.Request) {
	words := queryWords(r)
	if len(words) == 0 {
		s.errorCount.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing q parameter"})
		return
	}
	limit, err := s.parseLimit(r)
	if err != nil {
		s.errorCount.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	key := fmt.Sprintf("%d\x00%s", limit, strings.Join(words, "\x00"))
	s.query(w, r, "expand", key,
		func(g *Generation) ([]byte, error) {
			return json.Marshal(g.Index.Expand(limit, words...))
		},
		func(g *Generation, payload []byte) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"generation":%d,"expansions":%s}`+"\n", g.ID, payload)
		})
}

// serveRules answers GET /rules?head=w&limit=N.
func (s *Server) serveRules(w http.ResponseWriter, r *http.Request) {
	head := r.URL.Query().Get("head")
	if head == "" || strings.ContainsAny(head, " \t,") {
		s.errorCount.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "head must be a single word"})
		return
	}
	limit, err := s.parseLimit(r)
	if err != nil {
		s.errorCount.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	key := fmt.Sprintf("%d\x00%s", limit, head)
	s.query(w, r, "rules", key,
		func(g *Generation) ([]byte, error) {
			return json.Marshal(g.Index.Rules(head, limit))
		},
		func(g *Generation, payload []byte) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"generation":%d,"head":%q,"rules":%s}`+"\n", g.ID, head, payload)
		})
}

// healthBody is the /healthz response.
type healthBody struct {
	Status     string `json:"status"`
	Generation int64  `json:"generation,omitempty"`
	Source     string `json:"source,omitempty"`
	Stats      *Stats `json:"stats,omitempty"`
}

func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	g := s.gen.Load()
	if g == nil {
		writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: "loading"})
		return
	}
	st := g.Index.Stats()
	writeJSON(w, http.StatusOK, healthBody{Status: "ok", Generation: g.ID, Source: g.Source, Stats: &st})
}

// swapBody is the /admin/swap response.
type swapBody struct {
	Generation int64 `json:"generation"`
	Stats      Stats `json:"stats"`
}

// serveSwap answers POST /admin/swap?path=/abs/rules.json (load a file
// from the server's filesystem) or POST /admin/swap with a WriteJSON
// rule array as the request body.
func (s *Server) serveSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	var g *Generation
	var err error
	if path := r.URL.Query().Get("path"); path != "" {
		g, err = s.SwapFromFile(path)
	} else {
		var ws []rules.WordRule
		if ws, err = rules.ParseJSON(r.Body); err == nil {
			g, err = s.Swap(ws, "POST /admin/swap")
		}
	}
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, swapBody{Generation: g.ID, Stats: g.Index.Stats()})
}

// headsBody is the /admin/heads response.
type headsBody struct {
	Generation int64      `json:"generation"`
	Heads      []HeadInfo `json:"heads"`
}

func (s *Server) serveHeads(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad limit %q", v)})
			return
		}
		limit = n
	}
	g := acquireFrom(&s.gen)
	if g == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no generation loaded"})
		return
	}
	defer g.release()
	writeJSON(w, http.StatusOK, headsBody{Generation: g.ID, Heads: g.Index.Heads(limit)})
}
