package distmine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestLivenessBasics: deaths attribute the first cause, DeadNodes sorts
// ascending.
func TestLivenessBasics(t *testing.T) {
	l := NewLiveness(4)
	first := errors.New("first cause")
	if !l.MarkDead(3, first) {
		t.Fatal("first MarkDead should report true")
	}
	if l.MarkDead(3, errors.New("second cause")) {
		t.Fatal("second MarkDead should report false")
	}
	if got := l.Dead(3); got != first {
		t.Fatalf("Dead(3) = %v, want the first cause", got)
	}
	if l.Dead(0) != nil {
		t.Fatal("living node should have nil Dead")
	}
	l.MarkDead(1, errors.New("x"))
	dead := l.DeadNodes()
	if len(dead) != 2 || dead[0] != 1 || dead[1] != 3 {
		t.Fatalf("DeadNodes = %v, want [1 3]", dead)
	}
}

// TestLivenessConcurrent hammers the tracker from many goroutines the
// way coordinator readers do — run under -race this pins the locking.
func TestLivenessConcurrent(t *testing.T) {
	const nodes = 8
	l := NewLiveness(nodes)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.SetPass(i, j)
				l.Passes()
			}
			if i%2 == 1 {
				l.MarkDead(i, fmt.Errorf("node %d died", i))
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Dead(i)
				l.DeadNodes()
			}
		}(i)
	}
	wg.Wait()
	dead := l.DeadNodes()
	if len(dead) != nodes/2 {
		t.Fatalf("DeadNodes = %v, want the %d odd nodes", dead, nodes/2)
	}
	for _, n := range dead {
		if n%2 != 1 {
			t.Fatalf("even node %d marked dead", n)
		}
		want := fmt.Sprintf("node %d died", n)
		if got := l.Dead(n).Error(); got != want {
			t.Fatalf("Dead(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestLivenessMarkDeadRace: exactly one of many racing MarkDead calls
// wins, and the stored cause is the winner's.
func TestLivenessMarkDeadRace(t *testing.T) {
	l := NewLiveness(1)
	const racers = 16
	wins := make([]bool, racers)
	causes := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		causes[i] = fmt.Errorf("cause %d", i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wins[i] = l.MarkDead(0, causes[i])
		}(i)
	}
	wg.Wait()
	winner := -1
	for i, won := range wins {
		if won {
			if winner >= 0 {
				t.Fatalf("both %d and %d claim the MarkDead win", winner, i)
			}
			winner = i
		}
	}
	if winner < 0 {
		t.Fatal("no MarkDead call won")
	}
	if got := l.Dead(0); got != causes[winner] {
		t.Fatalf("stored cause %v is not the winner's (%v)", got, causes[winner])
	}
}

// TestParseFailurePolicy covers the flag surface.
func TestParseFailurePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want FailurePolicy
		ok   bool
	}{
		{"", FailurePolicyAbort, true},
		{"abort", FailurePolicyAbort, true},
		{"reassign", FailurePolicyReassign, true},
		{"retry", "", false},
		{"Abort", "", false},
	}
	for _, c := range cases {
		got, err := ParseFailurePolicy(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Fatalf("ParseFailurePolicy(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
