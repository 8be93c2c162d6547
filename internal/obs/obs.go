// Package obs is the observability layer of the mining runtime: a
// structured per-pass event log, span-style timers around the cluster
// collectives, and live gauges served over HTTP (see http.go) or written
// as a JSON-lines trace (see trace.go).
//
// The paper's whole evaluation (Figures 4–11) is about where time goes —
// candidates per pass, pruning effectiveness, exchange vs. scan time —
// so the runtime emits exactly those quantities while it runs instead of
// only a post-hoc Metrics struct.
//
// Everything is driven through a *Recorder. A nil *Recorder is the
// disabled state and every method is a nil-check away from returning:
// emission sites guard their event construction behind Enabled(), so a
// disabled run performs no timing calls and no allocations on the hot
// counting paths (pinned by TestDisabledRecorderAllocs).
package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// PassEvent describes one counting pass over the (working) database at
// one node: the quantities behind Figures 6–11.
type PassEvent struct {
	// Node is the emitting node's id; Partition the Multipass partition
	// index being mined (-1 when the algorithm has no partitions, e.g.
	// Count Distribution); K the candidate itemset size of the pass.
	Node      int `json:"node"`
	Partition int `json:"partition"`
	K         int `json:"k"`

	// Candidates is the number of candidate k-itemsets actually counted;
	// PrunedTHT / PrunedSubset the candidates dropped by the IHP bound
	// and the subset-infrequency check before the scan.
	Candidates   int   `json:"candidates"`
	PrunedTHT    int64 `json:"pruned_tht"`
	PrunedSubset int64 `json:"pruned_subset"`

	// TrimmedItems / PrunedTx account the transaction trimming and
	// pruning this pass performed.
	TrimmedItems int64 `json:"trimmed_items"`
	PrunedTx     int64 `json:"pruned_tx"`

	// GenSeconds is measured wall clock of the pass's candidate
	// generation and pruning, up to the start of its scan (MIHP and
	// PMIHP nodes; 0 for Count Distribution). ScanSeconds is measured wall
	// clock of the counting scan. ExchangeSeconds is the collective time
	// attached to this pass (Count Distribution's per-pass all-reduce; 0
	// for PMIHP, whose collectives are span events instead). WireBytes
	// is the wire traffic of that collective when one exists.
	GenSeconds      float64 `json:"gen_seconds,omitempty"`
	ScanSeconds     float64 `json:"scan_seconds"`
	ExchangeSeconds float64 `json:"exchange_seconds,omitempty"`
	WireBytes       int64   `json:"wire_bytes,omitempty"`
}

// SpanEvent is one timed operation: an all-gather round, a candidate
// polling phase, a recovery attempt.
type SpanEvent struct {
	// Name identifies the operation, by convention "group:detail"
	// (e.g. "exchange:item-counts", "poll:resolve", "recovery:attempt").
	Name string `json:"name"`
	// Node is the logical node the span belongs to (-1 for
	// coordinator-level spans). Daemon attributes the process, when the
	// recorder knows it (see SetDaemon).
	Node   int    `json:"node"`
	Daemon string `json:"daemon,omitempty"`
	// Seconds is the measured wall clock; Bytes the wire traffic the
	// operation moved (when applicable); Err a terse failure note.
	Seconds float64 `json:"seconds"`
	Bytes   int64   `json:"bytes,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// PollEvent is one served candidate-poll batch: the poll-service side of
// the counting work, kept separate from PassEvents so miner-side and
// server-side candidate totals reconcile against mining.Metrics.
type PollEvent struct {
	Node int `json:"node"`
	K    int `json:"k"`
	Sets int `json:"sets"`
}

// Event is one record of the trace stream. Exactly one of the payload
// pointers is set, matching Type.
type Event struct {
	Type string     `json:"type"` // "pass" | "span" | "poll"
	Pass *PassEvent `json:"pass,omitempty"`
	Span *SpanEvent `json:"span,omitempty"`
	Poll *PollEvent `json:"poll,omitempty"`
}

// Event type names.
const (
	TypePass = "pass"
	TypeSpan = "span"
	TypePoll = "poll"
)

// Config configures a Recorder.
type Config struct {
	// Writer, when non-nil, receives every event as one JSON line
	// (the -trace-json stream). Write errors are sticky: the first one
	// is kept (see Err) and further writes stop.
	Writer io.Writer
	// Keep retains every event in memory for Events(); tests and the
	// golden-file suite use it. Long production runs should prefer the
	// Writer stream.
	Keep bool
}

// Recorder collects events and maintains the aggregate gauges the HTTP
// endpoint serves. All methods are safe for concurrent use and safe on
// a nil receiver (the disabled fast path).
type Recorder struct {
	mu     sync.Mutex
	cfg    Config
	werr   error
	events []Event
	daemon string

	// Aggregates, all guarded by mu. Event emission is per pass / per
	// collective, far off the counting hot paths, so a mutex is cheap.
	passes       int64
	candByK      map[int]int64
	pollByK      map[int]int64
	prunedTHT    int64
	prunedSubset int64
	trimmedItems int64
	prunedTx     int64
	genSeconds   float64
	scanSeconds  float64
	exchSeconds  float64
	wireBytes    int64
	spanSeconds  map[string]float64
	spanCount    map[string]int64
	spanBytes    map[string]int64
	passK        map[int]int // node -> k of its latest pass
	beats        map[int]time.Time
	gauges       map[string]int64
	nodeGauges   map[string]map[int]int64
	floatGauges  map[string]float64
	nodeFloats   map[string]map[int]float64
}

// New returns a live Recorder.
func New(cfg Config) *Recorder {
	return &Recorder{
		cfg:         cfg,
		candByK:     make(map[int]int64),
		pollByK:     make(map[int]int64),
		spanSeconds: make(map[string]float64),
		spanCount:   make(map[string]int64),
		spanBytes:   make(map[string]int64),
		passK:       make(map[int]int),
		beats:       make(map[int]time.Time),
		gauges:      make(map[string]int64),
		nodeGauges:  make(map[string]map[int]int64),
		floatGauges: make(map[string]float64),
		nodeFloats:  make(map[string]map[int]float64),
	}
}

// Enabled reports whether the recorder is live. Emission sites use it
// to skip event construction (and the time.Now calls feeding it)
// entirely when observability is off.
func (r *Recorder) Enabled() bool { return r != nil }

// SetDaemon sets the process label stamped on every subsequent span
// (a daemon's listen address, or "coordinator").
func (r *Recorder) SetDaemon(label string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.daemon = label
	r.mu.Unlock()
}

// Pass records one counting pass.
func (r *Recorder) Pass(ev PassEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.passes++
	r.candByK[ev.K] += int64(ev.Candidates)
	r.prunedTHT += ev.PrunedTHT
	r.prunedSubset += ev.PrunedSubset
	r.trimmedItems += ev.TrimmedItems
	r.prunedTx += ev.PrunedTx
	r.genSeconds += ev.GenSeconds
	r.scanSeconds += ev.ScanSeconds
	r.exchSeconds += ev.ExchangeSeconds
	r.wireBytes += ev.WireBytes
	r.passK[ev.Node] = ev.K
	if r.retainsLocked() {
		// Copy inside the guard so the parameter itself never escapes:
		// a nil-receiver call must stay allocation-free.
		p := ev
		r.appendLocked(Event{Type: TypePass, Pass: &p})
	}
	r.mu.Unlock()
}

// Poll records one served candidate-poll batch.
func (r *Recorder) Poll(ev PollEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pollByK[ev.K] += int64(ev.Sets)
	if r.retainsLocked() {
		p := ev
		r.appendLocked(Event{Type: TypePoll, Poll: &p})
	}
	r.mu.Unlock()
}

// RecordSpan records an operation whose duration was measured by the
// caller (the runtime reuses the exact timings it already feeds into
// mining.Metrics, so trace replays reconcile to the metric totals
// instead of drifting by an independent clock read).
func (r *Recorder) RecordSpan(ev SpanEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if ev.Daemon == "" {
		ev.Daemon = r.daemon
	}
	r.spanSeconds[ev.Name] += ev.Seconds
	r.spanCount[ev.Name]++
	r.spanBytes[ev.Name] += ev.Bytes
	r.wireBytes += ev.Bytes
	if r.retainsLocked() {
		p := ev
		r.appendLocked(Event{Type: TypeSpan, Span: &p})
	}
	r.mu.Unlock()
}

// Beat records a liveness sign from the node (the coordinator feeds it
// from every control-plane frame it reads).
func (r *Recorder) Beat(node int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.beats[node] = time.Now()
	r.mu.Unlock()
}

// SetGauge sets a named cluster-level gauge (e.g. "failovers_total",
// "checkpoint_stage").
func (r *Recorder) SetGauge(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// SetNodeGauge sets a named per-node gauge (e.g. "peak_held_bytes").
func (r *Recorder) SetNodeGauge(name string, node int, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	m := r.nodeGauges[name]
	if m == nil {
		m = make(map[int]int64)
		r.nodeGauges[name] = m
	}
	m[node] = v
	r.mu.Unlock()
}

// SetFloatGauge sets a named cluster-level float gauge (e.g.
// "pass_imbalance_ratio").
func (r *Recorder) SetFloatGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.floatGauges[name] = v
	r.mu.Unlock()
}

// SetNodeFloatGauge sets a named per-node float gauge (e.g.
// "busy_seconds", "idle_seconds").
func (r *Recorder) SetNodeFloatGauge(name string, node int, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	m := r.nodeFloats[name]
	if m == nil {
		m = make(map[int]float64)
		r.nodeFloats[name] = m
	}
	m[node] = v
	r.mu.Unlock()
}

// Events returns a copy of the retained event stream (Config.Keep).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Err returns the first trace-write error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.werr
}

// retainsLocked reports whether events need materializing at all
// (retained in memory or streamed as JSON lines); r.mu is held.
func (r *Recorder) retainsLocked() bool {
	return r.cfg.Keep || (r.cfg.Writer != nil && r.werr == nil)
}

// appendLocked stores and/or streams one event; r.mu is held.
func (r *Recorder) appendLocked(e Event) {
	if r.cfg.Keep {
		r.events = append(r.events, e)
	}
	if r.cfg.Writer != nil && r.werr == nil {
		if err := writeEventLine(r.cfg.Writer, e); err != nil {
			r.werr = fmt.Errorf("obs: writing trace event: %w", err)
		}
	}
}

// Snapshot is a point-in-time copy of the recorder's aggregates, the
// basis of both the Prometheus text and the expvar JSON endpoints.
type Snapshot struct {
	Passes        int64                      `json:"passes"`
	CandidatesByK map[int]int64              `json:"candidates_by_k"`
	PolledByK     map[int]int64              `json:"polled_by_k"`
	PrunedTHT     int64                      `json:"pruned_tht"`
	PrunedSubset  int64                      `json:"pruned_subset"`
	TrimmedItems  int64                      `json:"trimmed_items"`
	PrunedTx      int64                      `json:"pruned_tx"`
	GenSeconds    float64                    `json:"gen_seconds"`
	ScanSeconds   float64                    `json:"scan_seconds"`
	ExchSeconds   float64                    `json:"exchange_seconds"`
	WireBytes     int64                      `json:"wire_bytes"`
	SpanSeconds   map[string]float64         `json:"span_seconds"`
	SpanCount     map[string]int64           `json:"span_count"`
	SpanBytes     map[string]int64           `json:"span_bytes"`
	PassK         map[int]int                `json:"pass_progress"`
	BeatAge       map[int]float64            `json:"heartbeat_age_seconds"`
	Gauges        map[string]int64           `json:"gauges"`
	NodeGauges    map[string]map[int]int64   `json:"node_gauges"`
	FloatGauges   map[string]float64         `json:"float_gauges"`
	NodeFloats    map[string]map[int]float64 `json:"node_float_gauges"`
}

// Snap returns the current aggregates.
func (r *Recorder) Snap() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Passes:        r.passes,
		CandidatesByK: make(map[int]int64, len(r.candByK)),
		PolledByK:     make(map[int]int64, len(r.pollByK)),
		PrunedTHT:     r.prunedTHT,
		PrunedSubset:  r.prunedSubset,
		TrimmedItems:  r.trimmedItems,
		PrunedTx:      r.prunedTx,
		GenSeconds:    r.genSeconds,
		ScanSeconds:   r.scanSeconds,
		ExchSeconds:   r.exchSeconds,
		WireBytes:     r.wireBytes,
		SpanSeconds:   make(map[string]float64, len(r.spanSeconds)),
		SpanCount:     make(map[string]int64, len(r.spanCount)),
		SpanBytes:     make(map[string]int64, len(r.spanBytes)),
		PassK:         make(map[int]int, len(r.passK)),
		BeatAge:       make(map[int]float64, len(r.beats)),
		Gauges:        make(map[string]int64, len(r.gauges)),
		NodeGauges:    make(map[string]map[int]int64, len(r.nodeGauges)),
		FloatGauges:   make(map[string]float64, len(r.floatGauges)),
		NodeFloats:    make(map[string]map[int]float64, len(r.nodeFloats)),
	}
	for k, v := range r.candByK {
		s.CandidatesByK[k] = v
	}
	for k, v := range r.pollByK {
		s.PolledByK[k] = v
	}
	for n, v := range r.spanSeconds {
		s.SpanSeconds[n] = v
	}
	for n, v := range r.spanCount {
		s.SpanCount[n] = v
	}
	for n, v := range r.spanBytes {
		s.SpanBytes[n] = v
	}
	for n, k := range r.passK {
		s.PassK[n] = k
	}
	now := time.Now()
	for n, t := range r.beats {
		s.BeatAge[n] = now.Sub(t).Seconds()
	}
	for n, v := range r.gauges {
		s.Gauges[n] = v
	}
	for name, m := range r.nodeGauges {
		cp := make(map[int]int64, len(m))
		for n, v := range m {
			cp[n] = v
		}
		s.NodeGauges[name] = cp
	}
	for n, v := range r.floatGauges {
		s.FloatGauges[n] = v
	}
	for name, m := range r.nodeFloats {
		cp := make(map[int]float64, len(m))
		for n, v := range m {
			cp[n] = v
		}
		s.NodeFloats[name] = cp
	}
	return s
}
