package distmine

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"pmihp/internal/corpus"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
)

// TestMetricsEndpointLiveCluster runs an 8-node loopback cluster with
// daemons and coordinator feeding one recorder behind a live HTTP
// endpoint — the -metrics-addr wiring — and checks that the endpoint
// (a) answers while the mine is in flight and (b) ends up reporting
// pass progress, per-node heartbeat liveness, collective spans, and
// held-bytes gauges for every node.
func TestMetricsEndpointLiveCluster(t *testing.T) {
	rec := obs.New(obs.Config{})
	addr, stop, err := obs.Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	const nodes = 8
	addrs := startDaemons(t, nodes, DaemonOptions{Obs: rec})
	db := buildDB(t, corpus.CorpusB(corpus.Small))

	var scrapes atomic.Int64
	done := make(chan struct{})
	scraper := make(chan struct{})
	go func() {
		defer close(scraper)
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, gerr := http.Get("http://" + addr + "/metrics")
			if gerr == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				scrapes.Add(1)
			}
		}
	}()
	_, merr := MineCluster(db, ClusterConfig{Addrs: addrs, Retry: fastRetry, Obs: rec},
		mining.Options{MinSupCount: 2, MaxK: 3})
	close(done)
	<-scraper
	if merr != nil {
		t.Fatal(merr)
	}
	if scrapes.Load() == 0 {
		t.Fatal("metrics endpoint never answered during the mine")
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"pmihp_passes_total",
		`pmihp_pass_current{node="0"}`,
		`pmihp_pass_current{node="7"}`,
		`pmihp_heartbeat_age_seconds{node="0"}`,
		`pmihp_heartbeat_age_seconds{node="7"}`,
		`pmihp_span_seconds_total{name="exchange:final"}`,
		`pmihp_peak_held_bytes{node="0"}`,
		`pmihp_tht_cascade_bytes{node="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("final /metrics scrape missing %q", want)
		}
	}

	resp, err = http.Get("http://" + addr + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	jerr := json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if jerr != nil {
		t.Fatalf("/snapshot not JSON: %v", jerr)
	}
	if snap.Passes == 0 {
		t.Error("/snapshot reports no passes after a full mine")
	}
	if len(snap.BeatAge) != nodes {
		t.Errorf("/snapshot tracks %d heartbeats, want %d", len(snap.BeatAge), nodes)
	}
	if len(snap.PassK) != nodes {
		t.Errorf("/snapshot tracks pass progress for %d nodes, want %d", len(snap.PassK), nodes)
	}
}

// TestCoordinatorRecordsSessionSpan: a coordinator-only recorder gets one
// cluster:session span per MineCluster call, on node -1 labeled
// coordinator with the call's wall clock — and nothing else span-shaped
// when the session is healthy — while a failed session's span carries its
// error, including a call that fails before any daemon is dialed.
func TestCoordinatorRecordsSessionSpan(t *testing.T) {
	sessionSpans := func(rec *obs.Recorder) (session []obs.SpanEvent, other []string) {
		for _, ev := range rec.Events() {
			switch {
			case ev.Type != obs.TypeSpan:
			case ev.Span.Name == "cluster:session":
				session = append(session, *ev.Span)
			default:
				other = append(other, ev.Span.Name)
			}
		}
		return session, other
	}
	db := buildDB(t, corpus.CorpusB(corpus.Small))

	rec := obs.New(obs.Config{Keep: true})
	addrs := startDaemons(t, 2, DaemonOptions{})
	if _, err := MineCluster(db, ClusterConfig{Addrs: addrs, Retry: fastRetry, Obs: rec},
		mining.Options{MinSupCount: 2, MaxK: 3}); err != nil {
		t.Fatal(err)
	}
	spans, other := sessionSpans(rec)
	if len(spans) != 1 || len(other) != 0 {
		t.Fatalf("healthy session traced %d cluster:session spans and %v; want exactly one session span", len(spans), other)
	}
	if s := spans[0]; s.Node != -1 || s.Seconds <= 0 || s.Err != "" || s.Daemon != "coordinator" {
		t.Fatalf("session span %+v: want node -1, positive seconds, no error, daemon coordinator", s)
	}

	for name, cfg := range map[string]ClusterConfig{
		"dead daemon":  {Addrs: []string{deadAddr(t)}, Retry: fastRetry},
		"no addresses": {},
	} {
		cfg.Obs = obs.New(obs.Config{Keep: true})
		if _, err := MineCluster(db, cfg, mining.Options{MinSupCount: 2}); err == nil {
			t.Fatalf("%s: session succeeded", name)
		}
		if spans, _ := sessionSpans(cfg.Obs); len(spans) != 1 || spans[0].Err == "" || spans[0].Node != -1 || spans[0].Daemon != "coordinator" {
			t.Fatalf("%s: failed session traced %+v; want one coordinator cluster:session span on node -1 carrying the error", name, spans)
		}
	}
}
