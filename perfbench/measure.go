package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opLog records every op of one measured phase: its latency, whether it
// failed, and the first few failure causes.
type opLog struct {
	latMs     []float64
	busy      time.Duration // summed op time, the "measured time" of a sequential workload
	attempted int
	failed    int
	failures  []string
}

func (l *opLog) add(d time.Duration, err error) {
	l.attempted++
	l.busy += d
	l.latMs = append(l.latMs, msOf(d))
	if err != nil {
		l.failed++
		if len(l.failures) < 5 {
			l.failures = append(l.failures, err.Error())
		}
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapSampler tracks the highest Go live heap (/gc/heap/live:bytes, the
// heap marked live by the latest GC) while a measured phase runs. A
// background goroutine samples every few milliseconds; workloads also
// call sample after each op so short phases are covered.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	return float64(h.peak.Load()) / 1e6
}

// span is one timed interval recorded by the benchmark around a call
// into a layer's public function. Op spans carry the name "op"; every
// other span is a child of the op with the same id.
type span struct {
	name       string
	op         int
	start, end time.Duration // since the tracer's origin
}

// tracer keeps the traced run's spans in memory. A nil tracer is the
// untraced state: every method returns at once.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(name string, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	t.mu.Unlock()
}

// check reports every child span that does not lie inside its op span,
// and every child whose op span is missing.
func (t *tracer) check() []string {
	if t == nil {
		return nil
	}
	ops := make(map[int]span)
	for _, s := range t.spans {
		if s.name == "op" {
			ops[s.op] = s
		}
	}
	var bad []string
	for _, s := range t.spans {
		if s.name == "op" {
			continue
		}
		o, ok := ops[s.op]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("span %s of op %d has no op span", s.name, s.op))
		case s.start < o.start || s.end > o.end || s.end < s.start:
			bad = append(bad, fmt.Sprintf("span %s [%v, %v] of op %d lies outside the op [%v, %v]",
				s.name, s.start, s.end, s.op, o.start, o.end))
		}
	}
	return bad
}

// layerSamples collects per-layer values keyed by the input they were
// measured on (a corpus, a stream step). The reported value is the mean
// over inputs of each input's median, so a deterministic per-input
// quantity reports the same value however many ops the run fitted in.
type layerSamples map[string]map[int][]float64

func (s layerSamples) add(name string, input int, v float64) {
	m := s[name]
	if m == nil {
		m = make(map[int][]float64)
		s[name] = m
	}
	m[input] = append(m[input], v)
}

func (s layerSamples) value(name string) (float64, bool) {
	m, ok := s[name]
	if !ok || len(m) == 0 {
		return 0, false
	}
	var sum float64
	for _, xs := range m {
		sum += median(xs)
	}
	return sum / float64(len(m)), true
}

// runSequential runs a sequential workload's measured phase: op(i,
// traced) runs op number i and returns its timed duration. It stops once
// c.seconds have passed and at least minOps ops have run, or at four
// times c.seconds whatever the count. In trace runs every other op is
// traced, and the parity flips each cycle over the inputs so that no
// input is always traced.
func runSequential(c config, o *outcome, inputs int, op func(i int, traced bool) (time.Duration, error)) {
	h := startHeapSampler()
	start := time.Now()
	limit := time.Duration(c.seconds * float64(time.Second))
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= limit && i >= c.sizes.minOps || el >= 4*limit {
			break
		}
		traced := c.trace && (i+i/inputs)%2 == 1
		d, err := op(i, traced)
		if traced {
			o.traced.add(d, err)
		} else {
			o.log.add(d, err)
		}
		h.sample()
	}
	o.peakHeap = h.finish()
}
