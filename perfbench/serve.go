package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/rules"
	"pmihp/internal/serve"
	"pmihp/internal/text"
)

const (
	serveSenders = 2   // one connection each
	serveLimit   = 5   // per-word term limit of every query
	serveZipfS   = 1.2 // head popularity, hottest first
	serveTwoWord = 0.2 // share of two-word queries
	sloSweeps    = 3   // passes over the rate steps behind slo_qps
	// sendSlack is how early a sender may send a request. Go timers on
	// an idle host wake a millisecond or more late, so a sender sleeps only
	// while it is more than this far ahead and otherwise sends at once;
	// a request sent early is timed from its send, a late one from when
	// it was due. Ten milliseconds keeps timer wake-ups out of the
	// latencies; only a backlog makes requests late.
	sendSlack = 10 * time.Millisecond
)

// query is one /expand request: a head word and, for two-word queries,
// a second one (w2 < 0 otherwise), as indexes into the head list.
type query struct{ w1, w2 int32 }

// expect is what the benchmark knows of a query before sending it: its
// URL and the digest of the response the reference index gives.
type expect struct {
	url  string
	hash uint64
}

// reqRec is the outcome of one request.
type reqRec struct {
	lat, late float32 // ms: time to response, and how late it was sent
	ok        bool    // 200 with the reference body
	status    int16   // HTTP status, 0 for a transport error
}

// loadGen drives open-loop GET /expand traffic over at most
// serveSenders connections.
type loadGen struct {
	client *http.Client
	expect map[query]expect

	mu       sync.Mutex
	failures []string
}

func (g *loadGen) noteFailure(format string, args ...any) {
	g.mu.Lock()
	if len(g.failures) < 5 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// phase offers qs at rate requests per second: request j is due at
// start + j/rate, and a free sender takes the next request and sends it
// when due, whatever happened to earlier ones. It returns each request's
// outcome and the phase's length from the first due time to the last
// response. With a tracer, each request records an op span (from due, or
// send when early, to response) and its HTTP child span.
func (g *loadGen) phase(rate float64, qs []query, tr *tracer, opBase int) ([]reqRec, time.Duration) {
	recs := make([]reqRec, len(qs))
	var next atomic.Int64
	interval := float64(time.Second) / rate
	start := time.Now().Add(sendSlack)
	ends := make([]time.Time, serveSenders)
	var wg sync.WaitGroup
	for s := 0; s < serveSenders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var body bytes.Buffer
			for {
				j := int(next.Add(1) - 1)
				if j >= len(qs) {
					return
				}
				due := start.Add(time.Duration(float64(j) * interval))
				if ahead := time.Until(due); ahead > sendSlack {
					time.Sleep(ahead - sendSlack)
				}
				send := time.Now()
				status, err := g.get(qs[j], &body)
				end := time.Now()
				from := due
				if send.Before(due) {
					from = send
				}
				r := &recs[j]
				r.lat = float32(msOf(end.Sub(from)))
				if send.After(due) {
					r.late = float32(msOf(send.Sub(due)))
				}
				r.status = int16(status)
				switch {
				case err != nil:
					g.noteFailure("request %v: %v", qs[j], err)
				case status != http.StatusOK:
					g.noteFailure("request %v: status %d", qs[j], status)
				case hashBytes(body.Bytes()) != g.expect[qs[j]].hash:
					g.noteFailure("request %v: %v: %.200s", qs[j], errWrongOutput, body.Bytes())
				default:
					r.ok = true
				}
				tr.record("op", opBase+j, from, end)
				tr.record("http.GET /expand", opBase+j, send, end)
				ends[s] = end
			}
		}(s)
	}
	wg.Wait()
	last := start
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	return recs, last.Sub(start)
}

// hashBytes is the digest the benchmark keeps of each served response.
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (g *loadGen) get(q query, body *bytes.Buffer) (int, error) {
	resp, err := g.client.Get(g.expect[q].url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// phaseStats summarizes a phase. Failed requests count as missing any
// latency limit.
type phaseStats struct {
	n, ok, errors int
	lat           []float64 // failures as +Inf
	p99           float64   // see blockQuantile
	lateMean      float64   // mean time requests were sent late
	rate          float64   // requests answered correctly per second
}

// latBlock is the number of consecutive requests a tail percentile is
// taken over: ten requests lie beyond a block's 99th percentile.
const latBlock = 1000

// blockQuantile is the median, over consecutive blocks of latBlock
// requests, of each block's q-quantile latency (one block when there are
// fewer). A host stall of a few milliseconds lands in one block and does
// not set the figure; a rate the server cannot sustain raises every
// block's.
func blockQuantile(lat []float64, q float64) float64 {
	if len(lat) < 2*latBlock {
		return quantile(lat, q)
	}
	var ps []float64
	for lo := 0; lo+latBlock <= len(lat); lo += latBlock {
		ps = append(ps, quantile(lat[lo:lo+latBlock], q))
	}
	return median(ps)
}

func summarize(recs []reqRec, dur time.Duration) phaseStats {
	s := phaseStats{n: len(recs), lat: make([]float64, len(recs))}
	for i, r := range recs {
		s.lat[i] = float64(r.lat)
		if r.ok {
			s.ok++
		} else {
			s.lat[i] = math.Inf(1)
		}
		if r.status != http.StatusOK {
			s.errors++
		}
		s.lateMean += float64(r.late)
	}
	if s.n > 0 {
		s.lateMean /= float64(s.n)
	}
	s.p99 = blockQuantile(s.lat, 0.99)
	if dur > 0 {
		s.rate = float64(s.ok) / dur.Seconds()
	}
	return s
}

// queryStream draws the query sequence: head ranks Zipf-distributed,
// hottest first, and a fixed share of two-word queries whose second word
// is uniform over the heads, so most two-word keys are distinct.
type queryStream struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	heads int
}

func newQueryStream(seed int64, heads int) *queryStream {
	rng := rand.New(rand.NewSource(seed))
	return &queryStream{rng: rng, zipf: rand.NewZipf(rng, serveZipfS, 1, uint64(heads-1)), heads: heads}
}

func (q *queryStream) take(n int) []query {
	out := make([]query, n)
	for i := range out {
		out[i] = query{w1: int32(q.zipf.Uint64()), w2: -1}
		if q.rng.Float64() < serveTwoWord {
			out[i].w2 = int32(q.rng.Intn(q.heads))
		}
	}
	return out
}

// runServe is the serve-zipf workload: open-loop GET /expand against an
// httptest server holding one generation built at setup from corpus B's
// rules. An op is one request; its expansions must equal the reference
// index's Expand for the same query.
func runServe(c config, o *outcome) error {
	cfg := corpus.CorpusB(corpus.Harness)
	cfg.Docs = c.sizes.serveDocs
	cfg.Seed = inputSeed(c.seed, "serve", 0)
	docs, err := corpus.Generate(cfg)
	if err != nil {
		return err
	}
	opts := mining.Options{MinSupCount: 3, MaxK: 3}

	// Set-up ends when the server answers: database, mining, rules,
	// index build and swap, listener.
	var srv *serve.Server
	var ts *httptest.Server
	var ws []rules.WordRule
	var gen *serve.Generation
	var nfreq int
	var vocab *text.Vocabulary
	for r := 0; r < c.sizes.setupReps; r++ {
		if ts != nil {
			ts.Close()
		}
		runtime.GC()
		t0 := time.Now()
		db, v := text.ToDB(docs, nil)
		t1 := time.Now()
		res, err := core.MineMIHP(db, opts)
		if err != nil {
			return err
		}
		t2 := time.Now()
		ws = rules.ToWordRules(rules.Generate(res.Frequent, db.Len(), ruleMinConf), v.Word)
		t3 := time.Now()
		srv = serve.NewServer(serve.Config{})
		if gen, err = srv.Swap(ws, "setup"); err != nil {
			return err
		}
		t4 := time.Now()
		ts = httptest.NewServer(srv.Handler(nil))
		o.setup = append(o.setup, time.Since(t0).Seconds())
		o.layer.add("text.todb_s", 0, t1.Sub(t0).Seconds())
		o.layer.add("rules.gen_ms", 0, msOf(t3.Sub(t2)))
		o.layer.add("serve.swap_ms", 0, msOf(t4.Sub(t3)))
		nfreq, vocab = len(res.Frequent), v
	}
	defer ts.Close()
	o.layer.add("rules.count", 0, float64(len(ws)))
	o.layer.add("serve.index_mb", 0, float64(gen.Index.MemBytes())/1e6)

	// The reference is an index of its own over the same rules.
	ref, err := serve.BuildIndex(ws)
	if err != nil {
		return err
	}
	var heads []string
	for _, h := range ref.Heads(0) {
		heads = append(heads, h.Word)
	}
	if len(heads) < 2 {
		return fmt.Errorf("serve corpus yields %d heads, need at least 2", len(heads))
	}
	o.inputs["docs"] = int64(len(docs))
	o.inputs["items"] = int64(vocab.Size())
	o.inputs["frequent_itemsets"] = int64(nfreq)
	o.inputs["rules"] = int64(len(ws))
	o.inputs["heads"] = int64(len(heads))

	// The whole request sequence is drawn up front, so its references are
	// computed before any request is timed.
	sec := c.seconds
	warm := int(c.serve.rate * 0.05 * sec)
	var fixed int
	stepN := make([]int, len(c.serve.steps))
	if c.trace {
		fixed = max(c.sizes.minRequests, int(c.serve.rate*sec))
	} else {
		fixed = max(c.sizes.minRequests, int(c.serve.rate*0.6*sec))
		stepSec := 0.4 * sec / float64(sloSweeps*len(c.serve.steps))
		for k, r := range c.serve.steps {
			stepN[k] = max(c.sizes.minRequests, int(r*stepSec))
		}
	}
	qstream := newQueryStream(inputSeed(c.seed, "queries", 0), len(heads))
	warmQs, fixedQs := qstream.take(warm), qstream.take(fixed)
	stepQs := make([][]query, len(stepN))
	for k, n := range stepN {
		stepQs[k] = qstream.take(n)
	}
	g := &loadGen{expect: make(map[query]expect)}
	for _, qs := range append([][]query{warmQs, fixedQs}, stepQs...) {
		for _, q := range qs {
			if _, ok := g.expect[q]; ok {
				continue
			}
			words := q.words(heads)
			payload, err := json.Marshal(ref.Expand(serveLimit, words...))
			if err != nil {
				return err
			}
			body := fmt.Sprintf(`{"generation":%d,"expansions":%s}`+"\n", gen.ID, payload)
			if c.corrupt {
				body = "corrupted " + body
			}
			u := ts.URL + "/expand?q=" + url.QueryEscape(words[0])
			if len(words) > 1 {
				u += "&q=" + url.QueryEscape(words[1])
			}
			g.expect[q] = expect{url: fmt.Sprintf("%s&limit=%d", u, serveLimit), hash: hashBytes([]byte(body))}
		}
	}
	o.inputs["distinct_queries"] = int64(len(g.expect))

	transport := &http.Transport{MaxConnsPerHost: serveSenders, MaxIdleConnsPerHost: serveSenders}
	defer transport.CloseIdleConnections()
	g.client = &http.Client{Transport: transport, Timeout: 5 * time.Second}

	// Warm-up at the offered rate: connections open and caches fill.
	g.phase(c.serve.rate, warmQs, nil, 0)
	g.failures = nil

	runtime.GC()
	h0, m0, c0 := srv.CacheStats()
	heap := startHeapSampler()
	var tr *tracer
	var reached int // requests that reached a replica: every non-error response
	if c.trace {
		// Alternate untraced and traced blocks of about half a second at
		// the offered rate, so both see the same conditions.
		tr = newTracer()
		var measured []reqRec
		block := max(1, min(int(c.serve.rate/2), len(fixedQs)/4))
		for lo, b := 0, 0; lo < len(fixedQs); lo, b = lo+block, b+1 {
			qs := fixedQs[lo:min(lo+block, len(fixedQs))]
			log := &o.log
			var btr *tracer
			if b%2 == 1 {
				log, btr = &o.traced, tr
			}
			recs, _ := g.phase(c.serve.rate, qs, btr, lo)
			addRecs(log, recs, true)
			measured = append(measured, recs...)
		}
		all := summarize(measured, 0)
		reached = all.n - all.errors
		o.layer.add("serve.queue_ms", 0, all.lateMean)
		o.layer.add("serve.errors", 0, float64(all.errors))
	} else {
		recs, dur := g.phase(c.serve.rate, fixedQs, nil, 0)
		addRecs(&o.log, recs, true)
		s := summarize(recs, dur)
		ol := &openLoop{opsPerS: s.rate, p90: blockQuantile(s.lat, 0.90), p99: blockQuantile(s.lat, 0.99)}
		o.openLoop = ol
		reached = s.n - s.errors
		// Step up through the offered rates until one misses the limit;
		// sweep the ladder sloSweeps times and keep the median, so a
		// host stall in one sweep does not set the figure.
		var best []float64
		for sw := 0; sw < sloSweeps; sw++ {
			rate := 0.0
			for k, r := range c.serve.steps {
				recs, dur := g.phase(r, stepQs[k], nil, 0)
				addRecs(&o.log, recs, false)
				s := summarize(recs, dur)
				reached += s.n - s.errors
				if s.p99 > c.serve.p99ms || s.rate < 0.95*r || s.ok < s.n {
					break
				}
				rate = s.rate
			}
			best = append(best, rate)
		}
		ol.sloQPS = median(best)
	}
	o.peakHeap = heap.finish()
	h1, m1, c1 := srv.CacheStats()
	o.log.failures = append(o.log.failures, g.failures...)

	if got := (h1 - h0) + (m1 - m0); got != int64(reached) {
		o.check("cache hits+misses grew by %d, but %d requests reached a replica", got, reached)
	}
	if !c.trace {
		return nil
	}
	for _, b := range tr.check() {
		o.check("%s", b)
	}
	l := o.layer
	if h1-h0+m1-m0 > 0 {
		l.add("serve.cache_hit_ratio", 0, float64(h1-h0)/float64(h1-h0+m1-m0))
	}
	l.add("serve.coalesced", 0, float64(c1-c0))
	// Replay the lookups on the serving index, same query sequence.
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		for _, q := range fixedQs {
			gen.Index.Expand(serveLimit, q.words(heads)...)
		}
		l.add("serve.lookup_us", 0, float64(time.Since(t0).Microseconds())/float64(len(fixedQs)))
	}
	return nil
}

func (q query) words(heads []string) []string {
	if q.w2 < 0 {
		return []string{heads[q.w1]}
	}
	return []string{heads[q.w1], heads[q.w2]}
}

// addRecs adds a phase's requests to an op log; withLatency also adds
// their latencies to the log's distribution.
func addRecs(l *opLog, recs []reqRec, withLatency bool) {
	for _, r := range recs {
		l.attempted++
		if !r.ok {
			l.failed++
		}
		if withLatency {
			l.latMs = append(l.latMs, float64(r.lat))
		}
	}
}
