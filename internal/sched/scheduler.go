package sched

import (
	"context"
	"fmt"
	"sync"

	"pmihp/internal/distmine"
	"pmihp/internal/mining"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

// SchedulerOptions configures a session queue over one pool.
type SchedulerOptions struct {
	// Pool supplies the workers.
	Pool *Pool
	// Cluster is the ClusterConfig template each session starts from.
	// The scheduler overwrites Addrs, Elastic, AcquireWorkers and
	// OnCheckpointStage per session; everything else (timeouts, failure
	// policy, straggler knobs, Obs) passes through.
	Cluster distmine.ClusterConfig
	// Logf, when non-nil, receives admission lifecycle logs.
	Logf func(format string, args ...any)
}

// SessionRequest describes one mining session submitted to the queue.
type SessionRequest struct {
	DB   *txdb.DB
	Opts mining.Options
	// Nodes is the logical node count to start with (one pool worker is
	// leased per logical node).
	Nodes int
	// GrowTo, when > Nodes, asks the scheduler to elastically scale the
	// session up to this many logical nodes at the first
	// partition-independent checkpoint barrier (StageItemCounts) — the
	// mid-run scale-up path, exercised by the smoke script. The grow is
	// best-effort: it happens only if the pool has idle workers then.
	GrowTo int
	// EstimatedBytes is the session's PeakHeldBytes admission estimate;
	// zero selects EstimateSessionBytes(DB). The per-worker reservation
	// is EstimatedBytes/Nodes.
	EstimatedBytes int64
	// Label names the session in logs.
	Label string
}

// EstimateSessionBytes is the default admission estimate for mining db:
// the partitions together hold the database once, and the THT build
// roughly doubles the resident footprint at peak, so reserve twice the
// encoded database size. Deliberately simple — admission control needs
// a stable ordering-safe estimate, not a forecast.
func EstimateSessionBytes(db *txdb.DB) int64 {
	return 2 * db.MemBytes()
}

// Session is a handle on a queued or running session.
type Session struct {
	req   SessionRequest
	sched *Scheduler

	admitted chan struct{}
	done     chan struct{}

	mu       sync.Mutex
	order    int      // admission sequence number, 1-based
	workers  []string // currently leased workers
	perW     int64
	ctrl     *distmine.ElasticControl
	res      *distmine.Result
	err      error
	grewOnce sync.Once
}

// AdmitOrder reports the session's admission sequence number (1-based;
// 0 until admitted). Admission is strictly FIFO: sessions are admitted
// in Submit order regardless of size.
func (s *Session) AdmitOrder() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order
}

// Workers returns the addresses currently leased to the session.
func (s *Session) Workers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.workers...)
}

// Admitted is closed when the session has been admitted (leased its
// initial workers and started).
func (s *Session) Admitted() <-chan struct{} { return s.admitted }

// Wait blocks until the session completes and returns its result.
func (s *Session) Wait() (*distmine.Result, error) {
	<-s.done
	return s.res, s.err
}

// Resize asks the running session to change its logical node count to
// n. Growing leases idle pool workers (best-effort: fewer than
// requested may be available, in which case the session keeps its
// current roster); shrinking releases the tail of the roster back to
// the pool immediately. The actual re-split happens at the session's
// next checkpoint barrier.
func (s *Session) Resize(n int) error {
	if n <= 0 {
		return fmt.Errorf("sched: resize to %d nodes", n)
	}
	s.mu.Lock()
	cur := len(s.workers)
	ctrl := s.ctrl
	if ctrl == nil {
		s.mu.Unlock()
		return fmt.Errorf("sched: session not running")
	}
	switch {
	case n == cur:
		s.mu.Unlock()
		return nil
	case n > cur:
		extra := s.sched.opt.Pool.AcquireIdle(n-cur, s.perW)
		if len(extra) == 0 {
			s.mu.Unlock()
			return fmt.Errorf("sched: no idle pool workers to grow from %d to %d nodes", cur, n)
		}
		s.workers = append(s.workers, extra...)
	default:
		dropped := append([]string(nil), s.workers[n:]...)
		s.workers = s.workers[:n]
		s.sched.opt.Pool.Release(dropped, s.perW)
	}
	addrs := append([]string(nil), s.workers...)
	s.mu.Unlock()
	return ctrl.Resize(addrs)
}

// Scheduler admits SessionRequests against a Pool, one at a time in
// FIFO order, and runs each admitted session as a MineCluster call on
// leased workers. Head-of-line blocking is deliberate: a large session
// at the head waits for capacity rather than being starved by a stream
// of small ones slipping past it.
type Scheduler struct {
	opt SchedulerOptions

	mu      sync.Mutex
	queue   chan *Session
	closed  bool
	ctx     context.Context
	cancel  context.CancelFunc
	drained sync.WaitGroup
}

// NewScheduler starts the admitter over opt.Pool.
func NewScheduler(opt SchedulerOptions) *Scheduler {
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{opt: opt, queue: make(chan *Session, 1024), ctx: ctx, cancel: cancel}
	s.drained.Add(1)
	go s.admitLoop()
	return s
}

// Close stops admitting. Queued-but-unadmitted sessions fail; running
// sessions are left to finish (their MineCluster calls own their
// lifecycle). Close does not wait for running sessions.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.cancel()
	s.drained.Wait()
}

// Submit queues a session. The returned handle's Admitted channel
// closes when the session starts; Wait returns its result.
func (s *Scheduler) Submit(req SessionRequest) (*Session, error) {
	if req.Nodes <= 0 {
		return nil, fmt.Errorf("sched: session needs at least one node, got %d", req.Nodes)
	}
	if req.DB == nil {
		return nil, fmt.Errorf("sched: session needs a database")
	}
	if req.EstimatedBytes <= 0 {
		req.EstimatedBytes = EstimateSessionBytes(req.DB)
	}
	sess := &Session{
		req:      req,
		sched:    s,
		admitted: make(chan struct{}),
		done:     make(chan struct{}),
		perW:     req.EstimatedBytes / int64(req.Nodes),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("sched: scheduler closed")
	}
	select {
	case s.queue <- sess:
	default:
		s.mu.Unlock()
		return nil, fmt.Errorf("sched: session queue full")
	}
	s.mu.Unlock()
	return sess, nil
}

// admitLoop is the single admitter: it leases workers for the queue
// head (blocking until the pool can satisfy it — that block is the
// FIFO guarantee) and hands the session to a runner goroutine.
func (s *Scheduler) admitLoop() {
	defer s.drained.Done()
	seq := 0
	for sess := range s.queue {
		workers, err := s.opt.Pool.Lease(s.ctx, sess.req.Nodes, sess.perW)
		if err != nil {
			sess.err = fmt.Errorf("sched: admitting session %q: %w", sess.req.Label, err)
			close(sess.done)
			continue
		}
		seq++
		sess.mu.Lock()
		sess.order = seq
		sess.workers = workers
		sess.ctrl = distmine.NewElasticControl()
		sess.mu.Unlock()
		s.opt.Logf("sched: admitted session %q (#%d) on %d workers", sess.req.Label, seq, len(workers))
		close(sess.admitted)
		go s.runSession(sess)
	}
	// After Close the loop drains the remaining queue: the cancelled
	// context makes each Lease fail, so queued sessions error out.
}

// runSession executes one admitted session end to end and returns its
// workers to the pool.
func (s *Scheduler) runSession(sess *Session) {
	cfg := s.opt.Cluster
	sess.mu.Lock()
	cfg.Addrs = append([]string(nil), sess.workers...)
	cfg.Elastic = sess.ctrl
	sess.mu.Unlock()

	// The straggler detector's grow path: lease idle workers and fold
	// them into the session's roster so they are released on completion.
	cfg.AcquireWorkers = func(max int) []string {
		extra := s.opt.Pool.AcquireIdle(max, sess.perW)
		if len(extra) > 0 {
			sess.mu.Lock()
			sess.workers = append(sess.workers, extra...)
			sess.mu.Unlock()
		}
		return extra
	}

	// Scheduled mid-run scale-up: fire once, at the first
	// partition-independent barrier.
	if sess.req.GrowTo > sess.req.Nodes {
		cfg.OnCheckpointStage = func(stage uint8) {
			if stage < transport.StageItemCounts {
				return
			}
			sess.grewOnce.Do(func() {
				if err := sess.Resize(sess.req.GrowTo); err != nil {
					s.opt.Logf("sched: session %q: scheduled grow to %d skipped: %v", sess.req.Label, sess.req.GrowTo, err)
				} else {
					s.opt.Logf("sched: session %q: growing to %d logical nodes at checkpoint barrier", sess.req.Label, sess.req.GrowTo)
				}
			})
		}
	}

	res, err := distmine.MineCluster(sess.req.DB, cfg, sess.req.Opts)

	sess.mu.Lock()
	workers := sess.workers
	sess.workers = nil
	sess.ctrl = nil
	sess.res, sess.err = res, err
	sess.mu.Unlock()
	s.opt.Pool.Release(workers, sess.perW)
	s.opt.Logf("sched: session %q done (err=%v); released %d workers", sess.req.Label, err, len(workers))
	close(sess.done)
}
