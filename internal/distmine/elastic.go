package distmine

import (
	"fmt"
	"sync"
)

// ElasticControl lets a running MineCluster session change its roster
// mid-run. A Resize aborts the in-flight attempt, and the session takes
// the recovery path a death or a straggler takes: it re-splits the
// database across the owner's roster and resumes from the item-count
// checkpoint, which carries only the all-reduced global item-count
// vector and so survives any repartition. The frequent list is
// byte-identical across any sequence of resizes because core.MinePMIHP's
// output does not depend on the node count.
//
// One ElasticControl serves one session at a time; hand a fresh one to
// each MineCluster call.
type ElasticControl struct {
	mu    sync.Mutex
	want  []string // pending roster (nil: none)
	abort func()   // current attempt's abort, armed by runAttempt
}

// NewElasticControl returns a control ready to wire into a
// ClusterConfig.
func NewElasticControl() *ElasticControl { return &ElasticControl{} }

// Resize requests that the session re-split onto exactly addrs (one
// logical node per entry; an address may repeat to stack nodes on one
// daemon). Safe to call from any goroutine, including the session's own
// OnCheckpointStage callback. A later Resize before the session reaches
// the barrier replaces the earlier one; a Resize after the session
// completed is a no-op.
func (e *ElasticControl) Resize(addrs []string) error {
	if len(addrs) == 0 {
		return fmt.Errorf("distmine: resize to an empty roster")
	}
	e.mu.Lock()
	e.want = append([]string(nil), addrs...)
	abort := e.abort
	e.mu.Unlock()
	if abort != nil {
		abort()
	}
	return nil
}

// arm installs the running attempt's abort hook. A resize requested
// between attempts fires it immediately.
func (e *ElasticControl) arm(abort func()) {
	e.mu.Lock()
	e.abort = abort
	pending := e.want != nil
	e.mu.Unlock()
	if pending && abort != nil {
		abort()
	}
}

// take consumes the pending request.
func (e *ElasticControl) take() []string {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.want
	e.want = nil
	return w
}

// resizeError is runAttempt's report that the attempt was aborted by a
// pending elastic resize onto roster rather than by a death or a
// straggler.
type resizeError struct {
	roster []string
}

func (e *resizeError) Error() string {
	return fmt.Sprintf("elastic resize to %d logical nodes requested; aborting attempt", len(e.roster))
}
