package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// writeEventLine marshals one event as a single JSON line.
func writeEventLine(w io.Writer, e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ValidateEvent checks one decoded event against the schema: a known
// type with exactly the matching payload present.
func ValidateEvent(e Event) error {
	set := 0
	if e.Pass != nil {
		set++
	}
	if e.Span != nil {
		set++
	}
	if e.Poll != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("obs: event has %d payloads, want exactly 1", set)
	}
	switch e.Type {
	case TypePass:
		if e.Pass == nil {
			return fmt.Errorf("obs: %q event without pass payload", e.Type)
		}
		if e.Pass.K < 1 {
			return fmt.Errorf("obs: pass event with k=%d", e.Pass.K)
		}
	case TypeSpan:
		if e.Span == nil {
			return fmt.Errorf("obs: %q event without span payload", e.Type)
		}
		if e.Span.Name == "" {
			return fmt.Errorf("obs: span event without name")
		}
	case TypePoll:
		if e.Poll == nil {
			return fmt.Errorf("obs: %q event without poll payload", e.Type)
		}
	default:
		return fmt.Errorf("obs: unknown event type %q", e.Type)
	}
	return nil
}

// ReadTrace decodes a JSON-lines event stream, validating every record
// against the schema.
func ReadTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if err := ValidateEvent(e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return events, nil
}

// ReadTraceFile reads and validates a -trace-json file.
func ReadTraceFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// Summary is the replay of an event stream: the totals a trace implies,
// comparable against the run's mining.Metrics.
type Summary struct {
	Passes          int64
	CandidatesByK   map[int]int64 // counted by miners (pass events)
	PolledByK       map[int]int64 // counted by poll service (poll events)
	PrunedTHT       int64
	PrunedSubset    int64
	TrimmedItems    int64
	PrunedTx        int64
	GenSeconds      float64
	ScanSeconds     float64
	ExchangeSeconds float64            // pass-attached collective time
	SpanSeconds     map[string]float64 // by span name
	WireBytes       int64
}

// SpanSecondsPrefix sums span time across names sharing a prefix
// (e.g. "exchange:" for all collective rounds).
func (s Summary) SpanSecondsPrefix(prefix string) float64 {
	total := 0.0
	for name, sec := range s.SpanSeconds {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			total += sec
		}
	}
	return total
}

// Summarize replays an event stream into its totals.
func Summarize(events []Event) Summary {
	s := Summary{
		CandidatesByK: make(map[int]int64),
		PolledByK:     make(map[int]int64),
		SpanSeconds:   make(map[string]float64),
	}
	for _, e := range events {
		switch {
		case e.Pass != nil:
			p := e.Pass
			s.Passes++
			s.CandidatesByK[p.K] += int64(p.Candidates)
			s.PrunedTHT += p.PrunedTHT
			s.PrunedSubset += p.PrunedSubset
			s.TrimmedItems += p.TrimmedItems
			s.PrunedTx += p.PrunedTx
			s.GenSeconds += p.GenSeconds
			s.ScanSeconds += p.ScanSeconds
			s.ExchangeSeconds += p.ExchangeSeconds
			s.WireBytes += p.WireBytes
		case e.Span != nil:
			s.SpanSeconds[e.Span.Name] += e.Span.Seconds
			s.WireBytes += e.Span.Bytes
		case e.Poll != nil:
			s.PolledByK[e.Poll.K] += int64(e.Poll.Sets)
		}
	}
	return s
}
