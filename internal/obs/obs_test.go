package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDisabledRecorderAllocs pins the zero-cost guarantee: every call on
// a nil *Recorder must perform zero allocations.
func TestDisabledRecorderAllocs(t *testing.T) {
	var r *Recorder
	errX := errors.New("x")
	allocs := testing.AllocsPerRun(100, func() {
		if r.Enabled() {
			t.Fatal("nil recorder reported enabled")
		}
		r.Pass(PassEvent{Node: 1, K: 2, Candidates: 10})
		r.Poll(PollEvent{Node: 1, K: 2, Sets: 5})
		r.RecordSpan(SpanEvent{Name: "exchange:test", Seconds: 0.1})
		sp := r.StartSpan("exchange:test", 0)
		sp.End()
		sp.EndBytes(128)
		sp.EndErr(errX)
		r.Beat(3)
		r.SetGauge("failovers_total", 1)
		r.SetNodeGauge("peak_held_bytes", 0, 1<<20)
		r.SetDaemon("d")
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated: %v allocs/op, want 0", allocs)
	}
}

func TestRecorderAggregatesAndTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := New(Config{Writer: &buf, Keep: true})
	r.SetDaemon("127.0.0.1:9000")

	r.Pass(PassEvent{Node: 0, Partition: 1, K: 2, Candidates: 10, PrunedTHT: 3, PrunedSubset: 2, TrimmedItems: 7, PrunedTx: 1, GenSeconds: 1.5, ScanSeconds: 0.5})
	r.Pass(PassEvent{Node: 1, Partition: 0, K: 3, Candidates: 4, GenSeconds: 0.5, ScanSeconds: 0.25, ExchangeSeconds: 0.125, WireBytes: 64})
	r.Poll(PollEvent{Node: 0, K: 2, Sets: 6})
	r.RecordSpan(SpanEvent{Name: "exchange:item-counts", Node: 1, Seconds: 0.5, Bytes: 100})
	r.RecordSpan(SpanEvent{Name: "checkpoint:write", Node: -1, Seconds: 0.0625})
	if err := r.Err(); err != nil {
		t.Fatalf("trace write error: %v", err)
	}

	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	kept := r.Events()
	if len(events) != 5 || len(kept) != 5 {
		t.Fatalf("got %d streamed / %d kept events, want 5/5", len(events), len(kept))
	}
	// The streamed and retained copies must be the same records.
	for i := range events {
		a, _ := json.Marshal(events[i])
		b, _ := json.Marshal(kept[i])
		if string(a) != string(b) {
			t.Fatalf("event %d differs: streamed %s kept %s", i, a, b)
		}
	}
	// Daemon attribution fills in from the recorder label.
	if got := events[3].Span.Daemon; got != "127.0.0.1:9000" {
		t.Fatalf("span daemon = %q, want recorder label", got)
	}

	sum := Summarize(events)
	if sum.Passes != 2 {
		t.Fatalf("Passes = %d, want 2", sum.Passes)
	}
	if sum.CandidatesByK[2] != 10 || sum.CandidatesByK[3] != 4 {
		t.Fatalf("CandidatesByK = %v", sum.CandidatesByK)
	}
	if sum.PolledByK[2] != 6 {
		t.Fatalf("PolledByK = %v", sum.PolledByK)
	}
	if sum.PrunedTHT != 3 || sum.PrunedSubset != 2 || sum.TrimmedItems != 7 || sum.PrunedTx != 1 {
		t.Fatalf("pruning totals = %+v", sum)
	}
	if sum.GenSeconds != 2 || sum.ScanSeconds != 0.75 || sum.ExchangeSeconds != 0.125 {
		t.Fatalf("time totals = %+v", sum)
	}
	if sum.WireBytes != 64+100 {
		t.Fatalf("WireBytes = %d, want 164", sum.WireBytes)
	}
	if got := sum.SpanSecondsPrefix("exchange:"); got != 0.5 {
		t.Fatalf("SpanSecondsPrefix(exchange:) = %v, want 0.5", got)
	}

	// Snapshot must agree with the replay.
	snap := r.Snap()
	if snap.Passes != sum.Passes || snap.WireBytes != sum.WireBytes ||
		snap.GenSeconds != sum.GenSeconds || snap.ScanSeconds != sum.ScanSeconds ||
		snap.ExchSeconds != sum.ExchangeSeconds {
		t.Fatalf("snapshot %+v disagrees with replay %+v", snap, sum)
	}
	if snap.PassK[0] != 2 || snap.PassK[1] != 3 {
		t.Fatalf("PassK = %v", snap.PassK)
	}
	if snap.SpanCount["exchange:item-counts"] != 1 || snap.SpanBytes["exchange:item-counts"] != 100 {
		t.Fatalf("span aggregates = %+v", snap)
	}
}

// Span is an in-flight timer returned by StartSpan. The zero Span (from
// a nil recorder) is inert.
type Span struct {
	r    *Recorder
	name string
	node int
	t0   time.Time
}

// StartSpan starts a timer for the named operation at the given node.
func (r *Recorder) StartSpan(name string, node int) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, node: node, t0: time.Now()}
}

// End finishes the span.
func (s Span) End() { s.finish(0, nil) }

// EndBytes finishes the span, attributing wire bytes to it.
func (s Span) EndBytes(bytes int64) { s.finish(bytes, nil) }

// EndErr finishes the span, recording a failure.
func (s Span) EndErr(err error) { s.finish(0, err) }

func (s Span) finish(bytes int64, err error) {
	if s.r == nil {
		return
	}
	ev := SpanEvent{
		Name:    s.name,
		Node:    s.node,
		Seconds: time.Since(s.t0).Seconds(),
		Bytes:   bytes,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	s.r.RecordSpan(ev)
}

func TestStartSpanMeasures(t *testing.T) {
	r := New(Config{Keep: true})
	sp := r.StartSpan("exchange:tht", 2)
	time.Sleep(10 * time.Millisecond)
	sp.EndBytes(42)
	ev := r.Events()
	if len(ev) != 1 || ev[0].Span == nil {
		t.Fatalf("events = %+v", ev)
	}
	if ev[0].Span.Seconds <= 0 {
		t.Fatalf("span seconds = %v, want > 0", ev[0].Span.Seconds)
	}
	if ev[0].Span.Bytes != 42 || ev[0].Span.Node != 2 {
		t.Fatalf("span = %+v", ev[0].Span)
	}
}

func TestValidateEvent(t *testing.T) {
	pass := &PassEvent{K: 2}
	span := &SpanEvent{Name: "x"}
	poll := &PollEvent{K: 2}
	cases := []struct {
		name string
		e    Event
		ok   bool
	}{
		{"pass ok", Event{Type: TypePass, Pass: pass}, true},
		{"span ok", Event{Type: TypeSpan, Span: span}, true},
		{"poll ok", Event{Type: TypePoll, Poll: poll}, true},
		{"no payload", Event{Type: TypePass}, false},
		{"two payloads", Event{Type: TypePass, Pass: pass, Span: span}, false},
		{"type/payload mismatch", Event{Type: TypeSpan, Pass: pass}, false},
		{"unknown type", Event{Type: "bogus", Pass: pass}, false},
		{"pass k<1", Event{Type: TypePass, Pass: &PassEvent{K: 0}}, false},
		{"span no name", Event{Type: TypeSpan, Span: &SpanEvent{}}, false},
	}
	for _, tc := range cases {
		err := ValidateEvent(tc.e)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"type\":\"pass\"}\n")); err == nil {
		t.Fatal("invalid event accepted")
	}
	if _, err := ReadTrace(strings.NewReader("not json\n")); err == nil {
		t.Fatal("non-JSON line accepted")
	}
}

func TestStickyWriteError(t *testing.T) {
	r := New(Config{Writer: failWriter{}})
	r.Pass(PassEvent{Node: 0, K: 2})
	if r.Err() == nil {
		t.Fatal("write error not recorded")
	}
	r.Pass(PassEvent{Node: 0, K: 3}) // must not panic or overwrite
	if !strings.Contains(r.Err().Error(), "boom") {
		t.Fatalf("sticky error = %v", r.Err())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

func TestHTTPEndpoint(t *testing.T) {
	r := New(Config{})
	r.Pass(PassEvent{Node: 0, K: 2, Candidates: 11, GenSeconds: 0.25, ScanSeconds: 0.5})
	r.Beat(0)
	r.SetGauge("failovers_total", 2)
	r.SetNodeGauge("peak_held_bytes", 0, 4096)

	addr, stop, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer stop()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"pmihp_passes_total 1",
		`pmihp_candidates_total{k="2"} 11`,
		"pmihp_gen_seconds_total 0.25",
		`pmihp_pass_current{node="0"} 2`,
		"pmihp_failovers_total 2",
		`pmihp_peak_held_bytes{node="0"} 4096`,
		`pmihp_heartbeat_age_seconds{node="0"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, metrics)
		}
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/snapshot")), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if snap.Passes != 1 || snap.CandidatesByK[2] != 11 || snap.GenSeconds != 0.25 {
		t.Fatalf("/snapshot = %+v", snap)
	}

	if !strings.Contains(get("/debug/vars"), `"pmihp"`) {
		t.Error("/debug/vars missing pmihp expvar")
	}
	if !strings.Contains(get("/debug/pprof/"), "pprof") {
		t.Error("/debug/pprof/ index not served")
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, _, err := Serve("256.0.0.1:bogus", New(Config{})); err == nil {
		t.Fatal("bad address accepted")
	}
}

// Example documents the end-to-end wiring: record, stream, replay.
func Example() {
	var buf bytes.Buffer
	r := New(Config{Writer: &buf})
	r.Pass(PassEvent{Node: 0, Partition: 0, K: 2, Candidates: 3, ScanSeconds: 0.5})
	events, _ := ReadTrace(&buf)
	sum := Summarize(events)
	fmt.Println(sum.Passes, sum.CandidatesByK[2])
	// Output: 1 3
}
