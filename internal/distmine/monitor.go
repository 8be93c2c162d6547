package distmine

import "sync"

// Liveness is the coordinator's heartbeat bookkeeping for one session
// attempt: pass progress and death attributions per logical node. All methods are safe for concurrent use — one reader
// goroutine per node feeds it while failure handling and the straggler
// watchdog inspect it.
type Liveness struct {
	mu   sync.Mutex
	pass []int
	dead []error
}

// NewLiveness returns a tracker for n logical nodes.
func NewLiveness(n int) *Liveness {
	return &Liveness{pass: make([]int, n), dead: make([]error, n)}
}

// SetPass records the node's reported local counting pass position.
// Monotonic: a late frame carrying an older position never regresses it.
func (l *Liveness) SetPass(node, passes int) {
	l.mu.Lock()
	if passes > l.pass[node] {
		l.pass[node] = passes
	}
	l.mu.Unlock()
}

// Passes returns a copy of every node's last reported pass position.
func (l *Liveness) Passes() []int {
	l.mu.Lock()
	out := append([]int(nil), l.pass...)
	l.mu.Unlock()
	return out
}

// MarkDead records the node's death attribution. The first cause wins;
// it reports whether this call was the one that marked it.
func (l *Liveness) MarkDead(node int, cause error) bool {
	l.mu.Lock()
	first := l.dead[node] == nil
	if first {
		l.dead[node] = cause
	}
	l.mu.Unlock()
	return first
}

// Dead returns the node's death attribution, or nil while it lives.
func (l *Liveness) Dead(node int) error {
	l.mu.Lock()
	err := l.dead[node]
	l.mu.Unlock()
	return err
}

// DeadNodes returns the indices of nodes marked dead, ascending.
func (l *Liveness) DeadNodes() []int {
	l.mu.Lock()
	var dead []int
	for i, err := range l.dead {
		if err != nil {
			dead = append(dead, i)
		}
	}
	l.mu.Unlock()
	return dead
}
