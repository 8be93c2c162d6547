package serve

import (
	"sync"
	"sync/atomic"
)

// Generation is one immutable rule-set index in service. Queries pin the
// generation they read (acquire/release, an epoch count) so a hot swap
// never invalidates an answer mid-flight: the swap installs the new
// generation for new queries and retires the old one, which reports
// itself drained only after its last in-flight query releases it. No
// query is ever dropped by a swap, and no background goroutine is needed
// to reclaim a generation — the last release does the bookkeeping.
type Generation struct {
	// ID is the monotonically increasing generation number; Source is a
	// human-readable provenance note ("mined at start", a file path).
	ID     int64
	Source string
	Index  *Index

	inflight  atomic.Int64
	retired   atomic.Bool
	drainOnce sync.Once
	drained   chan struct{}
}

func newGeneration(id int64, source string, ix *Index) *Generation {
	return &Generation{ID: id, Source: source, Index: ix, drained: make(chan struct{})}
}

// acquireFrom pins the generation currently installed in ptr. The
// increment-then-recheck loop closes the race with a concurrent swap: if
// the pointer still holds g after the increment, any later retire must
// observe the increment (or the matching release), so g cannot report
// drained while this query reads it. On a pointer change the speculative
// pin is released and the load retried against the new generation.
func acquireFrom(ptr *atomic.Pointer[Generation]) *Generation {
	for {
		g := ptr.Load()
		if g == nil {
			return nil
		}
		g.inflight.Add(1)
		if ptr.Load() == g {
			return g
		}
		g.release()
	}
}

// release unpins the generation; the last release of a retired
// generation marks it drained.
func (g *Generation) release() {
	if g.inflight.Add(-1) == 0 && g.retired.Load() {
		g.drainOnce.Do(func() { close(g.drained) })
	}
}

// retire marks the generation as out of service. It is called after the
// serving pointers have been swapped away from g, so the in-flight count
// can only fall from here; when it reaches zero the generation is
// drained. Safe against concurrent releases: whichever of retire and the
// last release observes both conditions closes the channel, exactly once.
func (g *Generation) retire() {
	g.retired.Store(true)
	if g.inflight.Load() == 0 {
		g.drainOnce.Do(func() { close(g.drained) })
	}
}

// drainedNow reports whether the generation has fully drained.
func (g *Generation) drainedNow() bool {
	select {
	case <-g.drained:
		return true
	default:
		return false
	}
}
