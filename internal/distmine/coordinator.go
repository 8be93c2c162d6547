package distmine

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/itemset"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

// FailurePolicy selects what the coordinator does when a worker dies
// mid-session.
type FailurePolicy string

const (
	// FailurePolicyAbort fails the whole session fast with an error
	// attributing the dead node. This is the default.
	FailurePolicyAbort FailurePolicy = "abort"
	// FailurePolicyReassign drops each dead daemon from the roster (or
	// replaces it with a respawned one), re-splits the database across
	// the new roster and resumes from the last checkpoint. The final
	// frequent list is byte-identical to an undisturbed run.
	FailurePolicyReassign FailurePolicy = "reassign"
)

// ParseFailurePolicy parses a -failure-policy flag value. Empty selects
// the default (abort).
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch FailurePolicy(s) {
	case "":
		return FailurePolicyAbort, nil
	case FailurePolicyAbort, FailurePolicyReassign:
		return FailurePolicy(s), nil
	}
	return "", fmt.Errorf("unknown failure policy %q (want %q or %q)", s, FailurePolicyAbort, FailurePolicyReassign)
}

// ClusterConfig configures a coordinator-driven multi-process run.
type ClusterConfig struct {
	// Addrs lists the node daemons' listen addresses, one per logical
	// node; the cluster size is len(Addrs).
	Addrs []string
	// Retry bounds control-plane dials; zero selects the default policy.
	Retry transport.RetryPolicy
	// IOTimeout bounds individual control reads/writes (zero: 30s).
	// MineTimeout bounds the whole mining session, recovery attempts
	// included (zero: 10min).
	IOTimeout   time.Duration
	MineTimeout time.Duration
	// FailurePolicy selects abort (default) or reassign-and-resume. Under
	// reassign the session survives at most len(Addrs)-1 failovers.
	FailurePolicy FailurePolicy
	// HeartbeatInterval is how often daemons beat on their control
	// connections (zero: 500ms). HeartbeatTimeout is the quiet interval
	// after which the coordinator declares a node dead (zero: 6x the
	// interval).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// StragglerLagPasses, when positive, arms the coordinator's straggler
	// detector: heartbeats carry each node's local counting pass
	// position, and when a node falls this many passes behind the fleet's
	// most advanced node, the coordinator aborts the attempt and re-splits
	// the database like any recovery — onto the roster grown by idle pool
	// workers (AcquireWorkers), the slow daemon keeping a smaller share,
	// or else onto the roster without the slow daemon. A grow counts in
	// Metrics.ElasticResizes, a drop in Metrics.RebalancedPartitions;
	// neither is a failover. Each address fires at most once per session,
	// which bounds the loop; a node still at pass 0 (receiving its
	// partition) never counts as lagging, and the lag must persist for
	// stragglerSustainTicks heartbeat intervals before the detector
	// fires. 0 (the default) disables detection.
	StragglerLagPasses int
	// Respawn, when non-nil, starts a replacement daemon and returns its
	// address; the replacement takes a dead daemon's roster entry instead
	// of the roster shrinking. Used by pmihp-mine cluster -spawn.
	Respawn func() (string, error)
	// Elastic, when non-nil, lets the session's owner change the roster
	// mid-run (see ElasticControl): the attempt aborts, the database is
	// re-split across the owner's roster, and mining resumes from the
	// item-count checkpoint.
	Elastic *ElasticControl
	// AcquireWorkers, when non-nil, hands the straggler detector a way to
	// grow instead of shrink: called with the maximum number of extra
	// workers that make sense, it returns the addresses of idle pool
	// workers this session may keep until it completes (possibly none).
	// The grown roster keeps the slow daemon, with a smaller share.
	AcquireWorkers func(max int) []string
	// OnCheckpointStage, when non-nil, is called (from the control-plane
	// reader) each time the session's checkpoint advances to a new stage —
	// the deterministic hook schedulers use to trigger mid-run resizes at
	// a barrier.
	OnCheckpointStage func(stage uint8)
	// Logf, when non-nil, receives recovery lifecycle logs.
	Logf func(format string, args ...any)
	// Obs, when non-nil, receives the coordinator's session telemetry:
	// per-node heartbeat liveness, checkpoint-stage and failover gauges,
	// recovery-attempt spans and one cluster:session span for the whole
	// call. Worker pass events stay on the daemons' own recorders — they
	// are separate processes.
	Obs *obs.Recorder
}

// MineCluster mines db across the node daemons listed in cfg: it splits
// the database under opts.Partitioner (equal document counts or equal
// estimated work, both chronological), ships each logical node its
// partition with the resolved session parameters, lets the nodes run the
// PMIHP protocol among themselves over their peer exchanges, and merges
// their reports. Every recovery — a death, a straggler, an owner's
// resize — takes one path: nextRoster picks the next roster from the
// cause, split re-cuts the database across it by estimated work, one
// partition per daemon, and the next attempt resumes from the item-count
// checkpoint. The frequent list is byte-identical to core.MinePMIHP's in
// exact mode on the same inputs, recoveries included, because PMIHP's
// output does not depend on how the database is cut. The session's wall
// clock goes to cfg.Obs as one cluster:session span (node -1), carrying
// the error when the session fails.
func MineCluster(db *txdb.DB, cfg ClusterConfig, opts mining.Options) (res *Result, err error) {
	start := time.Now()
	cfg.Obs.SetDaemon("coordinator")
	defer func() {
		ev := obs.SpanEvent{Name: "cluster:session", Node: -1, Seconds: time.Since(start).Seconds()}
		if err != nil {
			ev.Err = err.Error()
		}
		cfg.Obs.RecordSpan(ev)
	}()
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("distmine: no node addresses")
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 30 * time.Second
	}
	if cfg.MineTimeout <= 0 {
		cfg.MineTimeout = 10 * time.Minute
	}
	if cfg.FailurePolicy == "" {
		cfg.FailurePolicy = FailurePolicyAbort
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 6 * cfg.HeartbeatInterval
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.Retry = cfg.Retry.WithDefaults()
	baseID, err := randomID()
	if err != nil {
		return nil, fmt.Errorf("distmine: cluster id: %w", err)
	}
	s := &session{
		cfg:            cfg,
		db:             db,
		p:              core.NewNodeParams(db, opts),
		baseID:         baseID,
		deadline:       time.Now().Add(cfg.MineTimeout),
		ckpt:           transport.Checkpoint{ClusterID: baseID, Stage: transport.StageNone},
		rebalancedHost: make(map[string]bool),
	}
	if err := s.split(cfg.Addrs, s.p.Opts.Partitioner); err != nil {
		return nil, err
	}

	for {
		res, cause := s.runAttempt()
		if cause == nil {
			res.Metrics.Failovers = s.failovers
			res.Metrics.RebalancedPartitions = s.rebalances
			res.Metrics.ElasticResizes = s.resizes
			res.Metrics.RecoverySeconds = s.recoverySeconds
			return res, nil
		}
		t0 := time.Now()
		roster, err := s.nextRoster(cause)
		if err != nil {
			return nil, err
		}
		if err := s.split(roster, mining.PartitionByWork); err != nil {
			return nil, err
		}
		cfg.Logf("distmine: session %016x re-split across %d logical nodes by %s, resuming from %s",
			s.baseID, len(roster), mining.PartitionByWork, transport.StageName(s.checkpoint().Stage))
		cfg.Obs.SetGauge("cluster_nodes", int64(len(roster)))
		if err := s.finishRecovery(t0, cause); err != nil {
			return nil, err
		}
	}
}

// finishRecovery closes one recovery window. The deadline check comes
// FIRST: a recovery that overran the session deadline is attributed
// entirely to the returned error and never accumulated into
// RecoverySeconds, so the elapsed time cannot be double-counted into
// both the metric and the error path. Only a recovery the session
// survives adds to RecoverySeconds — which keeps the reported metric
// the recovery time of the run that actually produced a result, and
// keeps RecoverySeconds disjoint from WireSeconds (WireSeconds sums the
// successful attempt's exchange phases; recovery windows sit strictly
// between attempts).
func (s *session) finishRecovery(t0 time.Time, cause error) error {
	elapsed := time.Since(t0).Seconds()
	if time.Now().After(s.deadline) {
		s.cfg.Obs.RecordSpan(obs.SpanEvent{Name: "recovery:attempt", Node: -1, Seconds: elapsed, Err: cause.Error()})
		return fmt.Errorf("distmine: session deadline passed during recovery (%.3fs recovering, not counted): %w", elapsed, cause)
	}
	s.recoverySeconds += elapsed
	s.cfg.Obs.RecordSpan(obs.SpanEvent{Name: "recovery:attempt", Node: -1, Seconds: elapsed})
	return nil
}

func randomID() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// session is the coordinator's state across recovery attempts.
type session struct {
	cfg ClusterConfig
	// db is the whole database, retained so every recovery can re-split
	// it across the next roster.
	db       *txdb.DB
	p        core.NodeParams
	baseID   uint64
	deadline time.Time

	// roster lists the daemons of the next attempt, one logical node per
	// entry (an owner's resize may repeat an address); parts and
	// partBytes are the database cut across it by partitioner. split
	// replaces all four together.
	roster      []string
	parts       []*txdb.DB
	partBytes   [][]byte
	partitioner mining.Partitioner

	// ckpt is the most advanced checkpoint node 0 has reported; guarded
	// by ckptMu because reader goroutines update it mid-attempt.
	ckptMu sync.Mutex
	ckpt   transport.Checkpoint

	// rebalancedHost marks daemon addresses the straggler detector has
	// fired on — each at most once per session, which bounds the
	// detect/re-split loop even if the re-split hosts are slow too. Keyed
	// by address, not roster index, because every recovery rebuilds the
	// roster.
	rebalancedHost map[string]bool

	failovers       int
	rebalances      int
	resizes         int
	recoverySeconds float64
}

// split cuts the database across roster, one chronological partition per
// entry, under partitioner, and points the checkpoint at the new node
// count. The item-count vector a checkpoint carries does not depend on
// the cut, so the next attempt resumes from it on any roster.
func (s *session) split(roster []string, partitioner mining.Partitioner) error {
	parts := partitioner.Split(s.db, len(roster))
	partBytes := make([][]byte, len(parts))
	for i, part := range parts {
		var buf bytes.Buffer
		if err := part.Encode(&buf); err != nil {
			return fmt.Errorf("distmine: node %d: encoding partition: %w", i, err)
		}
		partBytes[i] = buf.Bytes()
	}
	s.roster = slices.Clone(roster)
	s.parts, s.partBytes, s.partitioner = parts, partBytes, partitioner
	s.ckptMu.Lock()
	s.ckpt.Nodes = int32(len(roster))
	s.ckptMu.Unlock()
	return nil
}

// nextRoster maps an aborted attempt's cause to the roster the next
// attempt runs on:
//   - an owner's resize: the owner's roster;
//   - a straggler: the roster plus the idle pool workers AcquireWorkers
//     hands out, or, without any, the roster minus the straggler;
//   - deaths under FailurePolicyReassign: the roster with each dead
//     daemon's entries taken over by a respawned daemon, or dropped when
//     there is no Respawn or it fails.
//
// Any other cause ends the session, as do an empty roster and more than
// len(cfg.Addrs)-1 failovers; the error wraps the cause.
func (s *session) nextRoster(cause error) ([]string, error) {
	var (
		rz    *resizeError
		st    *stragglerError
		death *deathError
		next  []string
	)
	switch {
	case errors.As(cause, &rz):
		s.cfg.Logf("distmine: %v", cause)
		s.resizes++
		s.cfg.Obs.SetGauge("resizes_total", int64(s.resizes))
		next = rz.roster
	case errors.As(cause, &st):
		s.cfg.Logf("distmine: %v", cause)
		s.rebalancedHost[st.addr] = true
		var extra []string
		if s.cfg.AcquireWorkers != nil {
			extra = s.cfg.AcquireWorkers(len(s.roster))
		}
		if len(extra) > 0 {
			s.cfg.Logf("distmine: straggler %s: growing onto %d idle pool workers", st.addr, len(extra))
			s.resizes++
			s.cfg.Obs.SetGauge("resizes_total", int64(s.resizes))
			next = append(slices.Clone(s.roster), extra...)
		} else {
			s.cfg.Logf("distmine: dropped straggler %s from the roster", st.addr)
			s.rebalances++
			s.cfg.Obs.SetGauge("rebalances_total", int64(s.rebalances))
			next = slices.Delete(slices.Clone(s.roster), st.node, st.node+1)
		}
	case errors.As(cause, &death) && s.cfg.FailurePolicy == FailurePolicyReassign:
		// A failover is one dead daemon, which takes every roster entry on
		// its address with it.
		var dead []string
		for _, i := range death.nodes {
			if !slices.Contains(dead, s.roster[i]) {
				dead = append(dead, s.roster[i])
			}
		}
		s.failovers += len(dead)
		s.cfg.Obs.SetGauge("failovers_total", int64(s.failovers))
		s.cfg.Logf("distmine: failover %d: %v", s.failovers, cause)
		if s.failovers > len(s.cfg.Addrs)-1 {
			return nil, fmt.Errorf("distmine: giving up after %d failovers: %w", s.failovers, cause)
		}
		replacement := make(map[string]string, len(dead)) // "" drops the entry
		for _, addr := range dead {
			if s.cfg.Respawn == nil {
				replacement[addr] = ""
			} else if r, err := s.cfg.Respawn(); err != nil {
				s.cfg.Logf("distmine: respawn failed (%v), dropping %s", err, addr)
				replacement[addr] = ""
			} else {
				s.cfg.Logf("distmine: replaced dead %s with %s", addr, r)
				replacement[addr] = r
			}
		}
		for _, addr := range s.roster {
			if r, ok := replacement[addr]; !ok {
				next = append(next, addr)
			} else if r != "" {
				next = append(next, r)
			}
		}
	default:
		return nil, cause
	}
	if len(next) == 0 {
		return nil, fmt.Errorf("distmine: no daemons left to resume on: %w", cause)
	}
	return next, nil
}

// stragglerSustainTicks is how many consecutive watchdog ticks (one per
// heartbeat interval) a node must stay beyond the lag threshold before
// the detector fires. A single stale beacon — a node observed mid-burst
// that catches up by the next tick — never triggers a re-split.
const stragglerSustainTicks = 4

// stragglerError is runAttempt's report that the attempt was aborted by
// the straggler detector rather than by a death: node (on roster entry
// addr) lagged the fleet's most advanced pass position by lag passes.
type stragglerError struct {
	node int
	addr string
	lag  int
}

func (e *stragglerError) Error() string {
	return fmt.Sprintf("straggler: node %d (%s) lags the fleet by %d passes", e.node, e.addr, e.lag)
}

// deathError is runAttempt's report that workers died: nodes lists the
// dead roster entries, err attributes the first death.
type deathError struct {
	nodes []int
	err   error
}

func (e *deathError) Error() string { return e.err.Error() }
func (e *deathError) Unwrap() error { return e.err }

func (s *session) checkpoint() transport.Checkpoint {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.ckpt
}

// noteProgress folds a node-0 progress report into the session
// checkpoint, monotonically: a stale report never regresses it.
func (s *session) noteProgress(payload []byte) {
	c, err := transport.DecodeCheckpoint(payload)
	if err != nil {
		s.cfg.Logf("distmine: ignoring bad progress report: %v", err)
		return
	}
	if int(c.Nodes) != len(s.roster) {
		s.cfg.Logf("distmine: ignoring progress report for %d nodes (session has %d)", c.Nodes, len(s.roster))
		return
	}
	s.ckptMu.Lock()
	if c.Stage <= s.ckpt.Stage {
		s.ckptMu.Unlock()
		return
	}
	c.ClusterID = s.baseID
	s.ckpt = c
	s.ckptMu.Unlock()
	s.cfg.Logf("distmine: session %016x checkpointed at %s", s.baseID, transport.StageName(c.Stage))
	s.cfg.Obs.SetGauge("checkpoint_stage", int64(c.Stage))
	if s.cfg.OnCheckpointStage != nil {
		s.cfg.OnCheckpointStage(c.Stage)
	}
}

// runAttempt drives one full try of the session: dial and initialize
// every logical node on its roster entry, watch heartbeats, collect
// terminal reports. An attempt that ends without a result reports why:
// a *deathError, *stragglerError or *resizeError is a cause nextRoster
// can recover from; any other error ends the session.
func (s *session) runAttempt() (*Result, error) {
	cfg := s.cfg
	// A resize requested before this attempt (or during the last
	// recovery) aborts it before anything is dialed.
	if roster := cfg.Elastic.take(); roster != nil {
		return nil, &resizeError{roster: roster}
	}
	peerAddrs := s.roster
	n := len(peerAddrs)
	// Each attempt gets a fresh cluster ID so a resume never collides with
	// a half-dead prior attempt's sessions still draining on surviving
	// daemons.
	attemptID, err := randomID()
	if err != nil {
		return nil, fmt.Errorf("distmine: attempt id: %w", err)
	}
	var resume []byte
	if ck := s.checkpoint(); ck.Stage > transport.StageNone {
		resume = transport.AppendCheckpoint(nil, ck)
	}

	ctx, cancel := context.WithDeadline(context.Background(), s.deadline)
	defer cancel()
	conns := make([]net.Conn, n)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()

	// Dial every logical node's control plane (with retry — daemons may
	// still be starting up) and initialize it with its partition. A
	// setup failure is attributed as a death of the node's daemon so the
	// reassign policy can re-split around daemons that died between
	// attempts.
	for i := 0; i < n; i++ {
		addr := peerAddrs[i]
		var conn net.Conn
		err := transport.Retry(ctx, cfg.Retry, nil, func() error {
			c, err := net.DialTimeout("tcp", addr, cfg.IOTimeout)
			if err != nil {
				return err
			}
			hello := transport.AppendHello(nil, transport.Hello{
				ClusterID: attemptID, From: -1, To: int32(i), Purpose: transport.PurposeControl,
			})
			if err := writeFrameDeadline(c, transport.MsgHello, hello, cfg.IOTimeout); err != nil {
				c.Close()
				return err
			}
			conn = c
			return nil
		})
		if err != nil {
			return nil, &deathError{[]int{i}, fmt.Errorf("distmine: node %d (%s): control dial: %w", i, addr, err)}
		}
		conns[i] = conn

		init := transport.Init{
			ClusterID:       attemptID,
			NodeID:          int32(i),
			Nodes:           int32(n),
			TotalDocs:       int32(s.p.TotalDocs),
			NumItems:        int32(s.p.NumItems),
			GlobalMin:       int32(s.p.Opts.MinSupCount),
			THTEntries:      int32(s.p.Opts.THTEntries),
			PartitionSize:   int32(s.p.Opts.PartitionSize),
			MaxK:            int32(s.p.Opts.MaxK),
			Workers:         int32(s.p.Opts.IntraNodeWorkers),
			Partitioner:     int32(s.partitioner),
			HeartbeatMillis: int32(cfg.HeartbeatInterval / time.Millisecond),
			PeerAddrs:       peerAddrs,
			DB:              s.partBytes[i],
			Resume:          resume,
		}
		if err := writeFrameDeadline(conn, transport.MsgInit, transport.AppendInit(nil, init), cfg.MineTimeout); err != nil {
			return nil, &deathError{[]int{i}, fmt.Errorf("distmine: node %d (%s): sending init: %w", i, addr, err)}
		}
	}

	// Watch every control connection: heartbeats and progress reports
	// stream in until the terminal NodeDone or ErrorMsg. A quiet
	// connection past HeartbeatTimeout — or a broken one — is a death.
	live := NewLiveness(n)
	dones := make([]transport.NodeDone, n)
	gotDone := make([]bool, n)
	nodeErrs := make([]error, n)
	var cancelled atomic.Bool
	var abortOnce sync.Once
	cancelAttempt := func() {
		abortOnce.Do(func() {
			cancelled.Store(true)
			for i, c := range conns {
				writeFrameDeadline(c, transport.MsgShutdown, nil, cfg.IOTimeout)
				// Node 0's control conn stays open: a progress frame may
				// already be buffered on it, and closing now would discard the
				// checkpoint the recovery is about to resume from. Its daemon
				// closes the conn after the shutdown, which ends the reader
				// deterministically after every buffered frame was processed.
				if i != 0 {
					c.Close()
				}
			}
		})
	}
	if cfg.Elastic != nil {
		// A Resize lands as an attempt abort; the session applies the new
		// roster at the recovery barrier. Disarm before returning so a
		// late Resize cannot touch a finished attempt's connections.
		cfg.Elastic.arm(cancelAttempt)
		defer cfg.Elastic.arm(nil)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, addr := conns[i], peerAddrs[i]
			for {
				readDeadline := time.Now().Add(cfg.HeartbeatTimeout)
				if readDeadline.After(s.deadline) {
					readDeadline = s.deadline
				}
				conn.SetReadDeadline(readDeadline)
				t, payload, err := transport.ReadFrame(conn, nil)
				if err != nil {
					if cancelled.Load() {
						// The attempt was already aborted; this conn error is
						// cancellation fallout, not an independent death. (A
						// daemon that also died in the same window is discovered
						// by the next attempt's control dial instead.)
						return
					}
					var cause error
					if errors.Is(err, os.ErrDeadlineExceeded) {
						cause = fmt.Errorf("node %d (%s): no heartbeat within %v: %v", i, addr, cfg.HeartbeatTimeout, err)
					} else {
						cause = fmt.Errorf("node %d (%s): control connection lost: %v", i, addr, err)
					}
					live.MarkDead(i, cause)
					cancelAttempt()
					return
				}
				s.cfg.Obs.Beat(i)
				switch t {
				case transport.MsgHeartbeat:
					// The payload carries the node's pass progress; a beacon
					// that fails to decode still counted as a sign of life
					// above, so it is ignored rather than fatal.
					if hb, herr := transport.DecodeHeartbeat(payload); herr == nil {
						live.SetPass(i, int(hb.Passes))
						s.cfg.Obs.SetNodeGauge("mining_passes", i, int64(hb.Passes))
					}
				case transport.MsgProgress:
					if i == 0 {
						s.noteProgress(payload)
					}
				case transport.MsgNodeDone:
					done, derr := transport.DecodeNodeDone(payload)
					if derr != nil {
						nodeErrs[i] = fmt.Errorf("node %d (%s): bad report: %w", i, addr, derr)
						cancelAttempt()
						return
					}
					dones[i], gotDone[i] = done, true
					return
				case transport.MsgError:
					em, _ := transport.DecodeError(payload)
					nodeErrs[i] = fmt.Errorf("node %d (%s) failed: %s", i, addr, em.Text)
					cancelAttempt()
					return
				default:
					nodeErrs[i] = fmt.Errorf("node %d (%s): unexpected message type %d", i, addr, t)
					cancelAttempt()
					return
				}
			}
		}(i)
	}

	// Straggler watchdog: compares the fleet's heartbeat pass positions
	// and aborts the attempt when an armed lag threshold is crossed. The
	// re-split itself happens between attempts, on the same
	// checkpoint/resume path every recovery takes.
	//
	// Two guards keep the detector honest on fast sessions. A node still
	// at pass 0 is setting up (receiving its partition, building its
	// working copies), not mining — that window is bounded by the
	// heartbeat timeout, so pass 0 never counts as lagging. And the lag
	// must hold for stragglerSustainTicks consecutive ticks: a healthy
	// node whose beacon lands mid-burst looks far behind for one tick
	// and caught up on the next, while a genuinely slow partition stays
	// behind every tick.
	var strag *stragglerError
	watching := cfg.StragglerLagPasses > 0 && n > 1
	watchStop, watchDone := make(chan struct{}), make(chan struct{})
	if watching {
		go func() {
			defer close(watchDone)
			tick := time.NewTicker(cfg.HeartbeatInterval)
			defer tick.Stop()
			lagTicks := make([]int, n)
			for {
				select {
				case <-watchStop:
					return
				case <-tick.C:
				}
				passes := live.Passes()
				lead := 0
				for _, p := range passes {
					if p > lead {
						lead = p
					}
				}
				for i, p := range passes {
					lag := lead - p
					if p == 0 || lag < cfg.StragglerLagPasses {
						lagTicks[i] = 0
						continue
					}
					lagTicks[i]++
					if lagTicks[i] < stragglerSustainTicks {
						continue
					}
					// Each address fires at most once per session.
					if s.rebalancedHost[peerAddrs[i]] {
						continue
					}
					strag = &stragglerError{node: i, addr: peerAddrs[i], lag: lag}
					cancelAttempt()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(watchStop)
	if watching {
		<-watchDone // settles strag; no read of rebalancedHost outlives the attempt
	}

	if dead := live.DeadNodes(); len(dead) > 0 {
		return nil, &deathError{dead, fmt.Errorf("distmine: %w", live.Dead(dead[0]))}
	}
	if strag != nil {
		return nil, strag
	}
	// A pending resize aborted the attempt: whatever fallout the abort
	// left in nodeErrs is cancellation noise, not failure. (If every
	// terminal report still arrived, the attempt beat the resize to the
	// finish and the result stands.)
	if slices.Contains(gotDone, false) {
		if roster := cfg.Elastic.take(); roster != nil {
			return nil, &resizeError{roster: roster}
		}
	}
	for _, err := range nodeErrs {
		if err != nil {
			return nil, fmt.Errorf("distmine: %w", err)
		}
	}
	for i, ok := range gotDone {
		if !ok {
			return nil, fmt.Errorf("distmine: node %d (%s): no terminal report", i, peerAddrs[i])
		}
	}
	// Graceful shutdown: release the daemons' sessions.
	for _, c := range conns {
		writeFrameDeadline(c, transport.MsgShutdown, nil, cfg.IOTimeout)
	}

	// ---- Merge the nodes' Found lists once, exactly as core.MinePMIHP
	// does. ----
	if len(dones[0].GlobalCounts) != s.p.NumItems {
		return nil, fmt.Errorf("distmine: node 0 reported %d global item counts, want %d",
			len(dones[0].GlobalCounts), s.p.NumItems)
	}
	globalCounts := make([]int, s.p.NumItems)
	for it, c := range dones[0].GlobalCounts {
		globalCounts[it] = int(c)
	}
	_, _, f1Counted := core.FrequentItems(globalCounts, s.p.Opts.MinSupCount)
	var all []itemset.Counted
	for _, done := range dones {
		all = append(all, done.Found...)
	}
	res := &Result{
		Frequent: core.MergeFound(f1Counted, all),
		Metrics:  mining.NewMetrics("distmine"),
		Nodes:    make([]NodeStats, n),
	}
	busy := make([]float64, n)
	for i, done := range dones {
		busy[i] = done.BusySeconds
		ns := NodeStats{Node: i, Docs: s.parts[i].Len(), Wire: done.Stats, PhaseSeconds: done.PhaseSeconds, BusySeconds: done.BusySeconds}
		res.Nodes[i] = ns
		res.Metrics.WireMessagesSent += ns.Wire.MessagesSent
		res.Metrics.WireMessagesReceived += ns.Wire.MessagesReceived
		res.Metrics.WireBytesSent += ns.Wire.BytesSent
		res.Metrics.WireBytesReceived += ns.Wire.BytesReceived
		res.Metrics.WireRetries += ns.Wire.Retries
		for _, sec := range ns.PhaseSeconds {
			res.Metrics.WireSeconds += sec
		}
	}
	res.Imbalance = core.ImbalanceRatio(busy)
	if res.Imbalance > 0 {
		cfg.Obs.SetFloatGauge("pass_imbalance_ratio", res.Imbalance)
	}
	return res, nil
}
