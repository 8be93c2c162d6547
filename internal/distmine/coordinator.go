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
	"path/filepath"
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
	// FailurePolicyReassign moves the dead daemon's logical nodes (their
	// transaction shards keep their original chronological partitioning)
	// to surviving or respawned daemons and restarts the session from the
	// last checkpointed pass. The final frequent list is byte-identical
	// to an undisturbed run.
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
	// FailurePolicy selects abort (default) or reassign-and-resume.
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
	// most advanced node, the coordinator aborts the attempt and re-hosts
	// the lagging daemon's logical nodes on other alive daemons, resuming
	// from the last checkpoint — the same machinery a death takes, except
	// the slow daemon stays alive (it is merely excluded as a target) and
	// the event counts in Metrics.RebalancedPartitions, not Failovers.
	// Each host is rebalanced away from at most once per session, which
	// bounds the loop; a node still at pass 0 (receiving its partition)
	// never counts as lagging, and the lag must persist for
	// stragglerSustainTicks heartbeat intervals before the detector
	// fires. The logical partitioning never changes, so the frequent
	// list stays byte-identical whether or not a re-split occurs. 0 (the
	// default) disables detection.
	StragglerLagPasses int
	// CheckpointDir, when non-empty, receives the session's checkpoint
	// file (session-<id>.ckpt, atomically replaced as passes complete) so
	// a future coordinator process could inspect or reuse it. Resume
	// itself works from the in-memory checkpoint and does not need this.
	CheckpointDir string
	// MaxFailovers caps recoveries before the coordinator gives up
	// (zero: n-1 — at least one original daemon must survive).
	MaxFailovers int
	// Respawn, when non-nil, starts a replacement daemon and returns its
	// address; a dead daemon's logical nodes move there instead of
	// doubling up on survivors. Used by pmihp-mine -spawn.
	Respawn func() (string, error)
	// Elastic, when non-nil, lets the session's owner change the logical
	// node count mid-run (see ElasticControl): the attempt aborts, the
	// database is re-split across the new roster, and mining resumes from
	// the last partition-independent checkpoint barrier.
	Elastic *ElasticControl
	// AcquireWorkers, when non-nil, hands the straggler detector a way to
	// grow instead of migrate: called with the maximum number of extra
	// workers that make sense, it returns the addresses of idle pool
	// workers this session may keep until it completes (possibly none).
	// When it returns workers, a detected straggler triggers an elastic
	// re-split across the grown roster — the slow daemon keeps a smaller
	// share — instead of draining the straggler onto already-busy peers.
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
	// checkpoint-write and recovery-attempt spans. Worker pass events stay
	// on the daemons' own recorders — they are separate processes.
	Obs *obs.Recorder
}

// MineCluster mines db across the node daemons listed in cfg: it splits
// the database under opts.Partitioner (equal document counts or equal
// estimated work, both chronological), ships each logical node its partition
// with the resolved session parameters, lets the nodes run the PMIHP
// protocol among themselves over their peer exchanges, and merges their
// reports. The frequent list is byte-identical to core.MinePMIHP's in
// exact mode on the same inputs — including across failovers, because
// reassignment never changes the partitioning, only which daemon hosts
// a partition.
func MineCluster(db *txdb.DB, cfg ClusterConfig, opts mining.Options) (*Result, error) {
	n := len(cfg.Addrs)
	if n == 0 {
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
	if cfg.MaxFailovers <= 0 {
		cfg.MaxFailovers = n - 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.Retry = cfg.Retry.WithDefaults()
	p := core.NewNodeParams(db, opts)
	parts := p.Opts.Partitioner.Split(db, n)

	// Encode every partition once; recovery attempts re-ship the same
	// bytes, which is what keeps reassignment byte-identical: the
	// partitioning is fixed for the session's lifetime.
	partBytes := make([][]byte, n)
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		if err := parts[i].Encode(&buf); err != nil {
			return nil, fmt.Errorf("distmine: node %d: encoding partition: %w", i, err)
		}
		partBytes[i] = buf.Bytes()
	}

	baseID, err := randomID()
	if err != nil {
		return nil, fmt.Errorf("distmine: cluster id: %w", err)
	}
	// A file already at this session's path can only be a dead
	// predecessor's leftovers: ids are 64-bit random, so a collision with
	// a checkpoint no coordinator retired is the one way a brand-new
	// session could resume from a dead session's state. Remove it before
	// anything can read it.
	retireStaleCheckpoint(cfg.CheckpointDir, baseID, cfg.Logf)

	s := &session{
		cfg:       cfg,
		db:        db,
		p:         p,
		parts:     parts,
		partBytes: partBytes,
		baseID:    baseID,
		roster:    append([]string(nil), cfg.Addrs...),
		alive:     make([]bool, n),
		hostOf:    make([]int, n),
		deadline:  time.Now().Add(cfg.MineTimeout),

		rebalancedHost: make(map[string]bool),
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	for i := range s.hostOf {
		s.hostOf[i] = i
	}
	s.ckpt = transport.Checkpoint{ClusterID: baseID, Nodes: int32(n), Stage: transport.StageNone}
	cfg.Obs.SetDaemon("coordinator")
	// The session's checkpoint file may still be mid-write when the last
	// attempt ends; external tooling reads it, so settle it before
	// returning.
	defer s.ckptWrites.Wait()

	for {
		// A resize requested between attempts (or the one that aborted the
		// last attempt) is applied here, at the recovery barrier: re-split
		// the database across the new roster and resume from the demoted
		// checkpoint.
		if addrs := cfg.Elastic.take(); addrs != nil {
			if rerr := s.applyResize(addrs); rerr != nil {
				return nil, rerr
			}
		}
		res, deaths, err := s.runAttempt()
		if err == nil {
			res.Metrics.Failovers = s.failovers
			res.Metrics.ReassignedPartitions = s.reassigned
			res.Metrics.RebalancedPartitions = s.rebalances
			res.Metrics.ElasticResizes = s.resizes
			res.Metrics.RecoverySeconds = s.recoverySeconds
			s.ckptWrites.Wait()
			s.retireCheckpointFile()
			return res, nil
		}
		var rz *resizeError
		if errors.As(err, &rz) {
			// Not a failure: the session's owner asked for a new node
			// count. The loop head applies it.
			t0 := time.Now()
			cfg.Logf("distmine: %v", err)
			if derr := s.finishRecovery(t0, err); derr != nil {
				return nil, derr
			}
			continue
		}
		var strag *stragglerError
		if errors.As(err, &strag) {
			// A straggler re-split: the lagging daemon is alive, just slow.
			// With idle pool workers available (AcquireWorkers), grow the
			// roster and re-split so the slow daemon keeps a smaller share;
			// otherwise re-host its logical nodes on other alive daemons.
			// Either way it resumes from the checkpoint — not a failover, so
			// it neither counts against MaxFailovers nor requires
			// FailurePolicyReassign (the detector is armed by its own knob).
			t0 := time.Now()
			cfg.Logf("distmine: %v", err)
			if rerr := s.growOrRebalance(strag); rerr != nil {
				return nil, rerr
			}
			cfg.Obs.SetGauge("rebalances_total", int64(s.rebalances))
			if derr := s.finishRecovery(t0, err); derr != nil {
				return nil, derr
			}
			continue
		}
		if len(deaths) == 0 || cfg.FailurePolicy != FailurePolicyReassign {
			return nil, err
		}
		t0 := time.Now()
		s.failovers += len(deaths)
		cfg.Obs.SetGauge("failovers_total", int64(s.failovers))
		cfg.Logf("distmine: failover %d: %v", s.failovers, err)
		if s.failovers > cfg.MaxFailovers {
			return nil, fmt.Errorf("distmine: giving up after %d failovers: %w", s.failovers, err)
		}
		if rerr := s.reassign(deaths, err); rerr != nil {
			return nil, rerr
		}
		if derr := s.finishRecovery(t0, err); derr != nil {
			return nil, derr
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
	// db is the whole database, retained so an elastic resize can
	// re-split it across a new roster mid-run.
	db        *txdb.DB
	p         core.NodeParams
	parts     []*txdb.DB
	partBytes [][]byte
	baseID    uint64
	deadline  time.Time

	// roster grows as daemons are respawned; alive marks which entries
	// still accept work; hostOf maps each logical node to its current
	// roster entry. The logical partitioning only changes at an elastic
	// resize (which rebuilds all three together with the partitions).
	roster []string
	alive  []bool
	hostOf []int

	// ckpt is the most advanced checkpoint node 0 has reported; guarded
	// by ckptMu because reader goroutines update it mid-attempt.
	ckptMu sync.Mutex
	ckpt   transport.Checkpoint

	// rebalancedHost marks daemon addresses already handled by the
	// straggler detector — each at most once per session, which bounds
	// the detect/re-split loop even if the replacement hosts are slow
	// too. Keyed by address, not roster index, because a resize rebuilds
	// the roster.
	rebalancedHost map[string]bool

	// Checkpoint persistence runs off the control-plane reader: a slow
	// fsync must not stall node 0's heartbeat processing, or the
	// straggler detector would mistake the coordinator's own disk for a
	// lagging node. ckptFileMu serializes the writers and ckptFileStage
	// keeps the on-disk file stage-monotonic; ckptWrites lets MineCluster
	// drain pending writes before returning.
	ckptWrites    sync.WaitGroup
	ckptFileMu    sync.Mutex
	ckptFileStage uint8

	failovers       int
	reassigned      int
	rebalances      int
	resizes         int
	recoverySeconds float64
}

// applyResize re-splits the database across a new roster of n' daemons
// and demotes the session checkpoint to the deepest stage that survives
// a repartition: StageItemCounts carries only the all-reduced global
// item-count vector, which no partitioning can change, while THT
// segments are per-partition and must be rebuilt. The next attempt runs
// the resumed protocol on the new roster; the frequent list stays
// byte-identical because core.MinePMIHP's output does not depend on the
// node count.
func (s *session) applyResize(addrs []string) error {
	n := len(addrs)
	if n == 0 {
		return fmt.Errorf("distmine: resize to an empty roster")
	}
	// Settle in-flight checkpoint-file writes before demoting the file
	// stage, so no stale old-roster write can land after the reset.
	s.ckptWrites.Wait()

	// A resize exists to rebalance, so the re-split always cuts by
	// estimated counting work (the skew-aware splitter) regardless of the
	// partitioner the session started under: a statically mis-partitioned
	// session comes out of the barrier balanced, not re-skewed across more
	// nodes. Placement never changes the frequent itemsets, so this is
	// invisible in the results.
	parts := mining.PartitionByWork.Split(s.db, n)
	partBytes := make([][]byte, n)
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		if err := parts[i].Encode(&buf); err != nil {
			return fmt.Errorf("distmine: resize: node %d: encoding partition: %w", i, err)
		}
		partBytes[i] = buf.Bytes()
	}
	s.parts, s.partBytes = parts, partBytes
	s.roster = append([]string(nil), addrs...)
	s.alive = make([]bool, n)
	s.hostOf = make([]int, n)
	for i := range s.alive {
		s.alive[i] = true
		s.hostOf[i] = i
	}

	s.ckptMu.Lock()
	demoted := transport.Checkpoint{ClusterID: s.baseID, Nodes: int32(n), Stage: transport.StageNone}
	if s.ckpt.Stage >= transport.StageItemCounts {
		demoted.Stage = transport.StageItemCounts
		demoted.GlobalCounts = s.ckpt.GlobalCounts
	}
	s.ckpt = demoted
	s.ckptMu.Unlock()
	s.ckptFileMu.Lock()
	// Let the new roster's checkpoints replace the retired partitioning's
	// file even though its stage may have been deeper.
	s.ckptFileStage = demoted.Stage
	s.ckptFileMu.Unlock()

	s.resizes++
	s.cfg.Logf("distmine: session %016x resized to %d logical nodes, resuming from %s",
		s.baseID, n, transport.StageName(demoted.Stage))
	s.cfg.Obs.SetGauge("cluster_nodes", int64(n))
	s.cfg.Obs.SetGauge("resizes_total", int64(s.resizes))
	return nil
}

// growOrRebalance handles a detected straggler. With idle pool workers
// on offer it grows the roster — every alive daemon currently hosting
// work keeps a (smaller) share, the idle workers take the rest — via the
// elastic re-split. Without them it falls back to migrating the slow
// daemon's partitions onto already-busy survivors.
func (s *session) growOrRebalance(e *stragglerError) error {
	if s.cfg.AcquireWorkers != nil {
		if extra := s.cfg.AcquireWorkers(len(s.hostOf)); len(extra) > 0 {
			s.rebalancedHost[e.addr] = true
			hosting := make(map[int]bool)
			for _, host := range s.hostOf {
				hosting[host] = true
			}
			var addrs []string
			for r, a := range s.roster {
				if s.alive[r] && hosting[r] {
					addrs = append(addrs, a)
				}
			}
			addrs = append(addrs, extra...)
			s.cfg.Logf("distmine: straggler %s: growing onto %d idle pool workers (re-split %d ways)",
				e.addr, len(extra), len(addrs))
			return s.applyResize(addrs)
		}
	}
	return s.rebalanceStraggler(e)
}

// checkpointPath is the session checkpoint file's location under dir.
func checkpointPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("session-%016x.ckpt", id))
}

// retireStaleCheckpoint removes a leftover checkpoint file matching a
// brand-new session's id. Only a dead predecessor with a colliding
// random id could have left it, and resuming from a dead session's
// state must never happen.
func retireStaleCheckpoint(dir string, id uint64, logf func(format string, args ...any)) {
	if dir == "" {
		return
	}
	path := checkpointPath(dir, id)
	if _, err := os.Stat(path); err != nil {
		return
	}
	logf("distmine: session %016x: removing stale checkpoint %s (id collision with an unretired earlier session)", id, path)
	if err := os.Remove(path); err != nil {
		logf("distmine: removing stale checkpoint: %v", err)
	}
}

// retireCheckpointFile removes the session's checkpoint file after a
// clean completion; a shared checkpoint directory holds files only for
// sessions that are still running or died unrecovered.
func (s *session) retireCheckpointFile() {
	if s.cfg.CheckpointDir == "" {
		return
	}
	if err := os.Remove(checkpointPath(s.cfg.CheckpointDir, s.baseID)); err != nil && !os.IsNotExist(err) {
		s.cfg.Logf("distmine: retiring session checkpoint: %v", err)
	}
}

// stragglerSustainTicks is how many consecutive watchdog ticks (one per
// heartbeat interval) a node must stay beyond the lag threshold before
// the detector fires. A single stale beacon — a node observed mid-burst
// that catches up by the next tick — never triggers a re-split.
const stragglerSustainTicks = 4

// stragglerError is runAttempt's report that the attempt was aborted by
// the straggler detector rather than by a death: node (on roster entry
// host) lagged the fleet's most advanced pass position by lag passes.
type stragglerError struct {
	node, host int
	addr       string
	lag        int
}

func (e *stragglerError) Error() string {
	return fmt.Sprintf("straggler: node %d (%s) lags the fleet by %d passes", e.node, e.addr, e.lag)
}

// rebalanceStraggler re-hosts every logical node of the straggling
// roster entry onto other alive daemons. The slow daemon stays alive and
// keeps its daemon process — only its partitions move — and it is never
// chosen as a target again this session.
func (s *session) rebalanceStraggler(e *stragglerError) error {
	s.rebalancedHost[e.addr] = true
	for node, host := range s.hostOf {
		if host != e.host {
			continue
		}
		target := s.leastLoadedAlive(e.host)
		if target < 0 {
			return fmt.Errorf("distmine: no other daemon to rebalance straggler node %d to: %w", node, e)
		}
		s.hostOf[node] = target
		s.rebalances++
		s.cfg.Logf("distmine: rebalanced node %d (%s lagging %d passes) to %s, resuming from %s",
			node, s.roster[e.host], e.lag, s.roster[target], transport.StageName(s.checkpoint().Stage))
	}
	return nil
}

// reassign moves the dead roster entries' logical nodes to replacements
// (respawned daemons when possible, otherwise least-loaded survivors).
// cause is the attempt's error, kept for context in follow-on failures.
func (s *session) reassign(deaths []int, cause error) error {
	for _, r := range deaths {
		s.alive[r] = false
	}
	for _, r := range deaths {
		var orphans []int
		for node, host := range s.hostOf {
			if host == r {
				orphans = append(orphans, node)
			}
		}
		if len(orphans) == 0 {
			continue
		}
		target := -1
		if s.cfg.Respawn != nil {
			addr, err := s.cfg.Respawn()
			if err != nil {
				s.cfg.Logf("distmine: respawn failed (%v), reassigning to survivors", err)
			} else {
				s.roster = append(s.roster, addr)
				s.alive = append(s.alive, true)
				target = len(s.roster) - 1
			}
		}
		for _, node := range orphans {
			host := target
			if host < 0 {
				host = s.leastLoadedAlive(-1)
				if host < 0 {
					return fmt.Errorf("distmine: no surviving daemons to reassign node %d to: %w", node, cause)
				}
			}
			s.hostOf[node] = host
			s.reassigned++
			s.cfg.Logf("distmine: reassigned node %d (%s dead) to %s, resuming from %s",
				node, s.roster[r], s.roster[host], transport.StageName(s.checkpoint().Stage))
		}
	}
	return nil
}

// leastLoadedAlive returns the alive roster entry hosting the fewest
// logical nodes (lowest index breaks ties), or -1 if none qualify.
// except, when >= 0, excludes that entry — the straggler rebalance must
// not hand partitions back to the host it is draining.
//
// The load map deliberately counts every hostOf entry, including
// partitions still attributed to dead hosts mid-recovery: those entries
// never inflate an alive candidate (dead and excepted hosts are skipped
// in the selection loop below), and reassign moves orphans one at a
// time, recomputing the load after each placement, so partitions not
// yet moved stay attributed to their dead host rather than being
// pre-counted against any survivor. Live placement decisions therefore
// only ever weigh live load — pinned by TestLeastLoadedAliveMultiDeath.
func (s *session) leastLoadedAlive(except int) int {
	load := make(map[int]int)
	for _, host := range s.hostOf {
		load[host]++
	}
	best, bestLoad := -1, 0
	for r := range s.roster {
		if !s.alive[r] || r == except {
			continue
		}
		if best < 0 || load[r] < bestLoad {
			best, bestLoad = r, load[r]
		}
	}
	return best
}

func (s *session) checkpoint() transport.Checkpoint {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.ckpt
}

// noteProgress folds a node-0 progress report into the session
// checkpoint (monotonically — a stale report never regresses it) and
// persists it to CheckpointDir when configured. Persistence failures are
// logged, never fatal: resume works from the in-memory checkpoint.
func (s *session) noteProgress(payload []byte) {
	c, err := transport.DecodeCheckpoint(payload)
	if err != nil {
		s.cfg.Logf("distmine: ignoring bad progress report: %v", err)
		return
	}
	if int(c.Nodes) != len(s.hostOf) {
		s.cfg.Logf("distmine: ignoring progress report for %d nodes (session has %d)", c.Nodes, len(s.hostOf))
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
	if s.cfg.CheckpointDir != "" {
		path := checkpointPath(s.cfg.CheckpointDir, s.baseID)
		s.ckptWrites.Add(1)
		go func() {
			defer s.ckptWrites.Done()
			s.ckptFileMu.Lock()
			defer s.ckptFileMu.Unlock()
			if c.Stage <= s.ckptFileStage {
				return // a newer checkpoint already reached disk
			}
			sp := s.cfg.Obs.StartSpan("checkpoint:write", -1)
			err := transport.WriteCheckpointFile(path, c)
			sp.EndErr(err)
			if err != nil {
				s.cfg.Logf("distmine: persisting checkpoint: %v", err)
				return
			}
			s.ckptFileStage = c.Stage
		}()
	}
}

// runAttempt drives one full try of the session: dial and initialize
// every logical node on its current host, watch heartbeats, collect
// terminal reports. On failure it also returns the roster entries it
// attributes deaths to (empty when the failure was not a worker death —
// those are not recoverable by reassignment).
func (s *session) runAttempt() (*Result, []int, error) {
	cfg := s.cfg
	n := len(s.hostOf)
	// Each attempt gets a fresh cluster ID so a respawn-and-resume never
	// collides with a half-dead prior attempt's sessions still draining
	// on surviving daemons.
	attemptID, err := randomID()
	if err != nil {
		return nil, nil, fmt.Errorf("distmine: attempt id: %w", err)
	}
	peerAddrs := make([]string, n)
	for i, host := range s.hostOf {
		peerAddrs[i] = s.roster[host]
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
	// setup failure is attributed as a death of the node's host so the
	// reassign policy can route around daemons that died between
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
			return nil, []int{s.hostOf[i]}, fmt.Errorf("distmine: node %d (%s): control dial: %w", i, addr, err)
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
			DenseThreshold:  s.p.Opts.DenseThreshold,
			Partitioner:     int32(s.p.Opts.Partitioner),
			HeartbeatMillis: int32(cfg.HeartbeatInterval / time.Millisecond),
			PeerAddrs:       peerAddrs,
			DB:              s.partBytes[i],
			Resume:          resume,
		}
		if err := writeFrameDeadline(conn, transport.MsgInit, transport.AppendInit(nil, init), cfg.MineTimeout); err != nil {
			return nil, []int{s.hostOf[i]}, fmt.Errorf("distmine: node %d (%s): sending init: %w", i, addr, err)
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
				live.Beat(i)
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
	// and aborts the attempt when an armed lag threshold is crossed and
	// another alive daemon could take the lagging host's partitions. The
	// rebalance itself happens between attempts, on the same
	// checkpoint/resume machinery a death uses.
	//
	// Two guards keep the detector honest on fast sessions. A node still
	// at pass 0 is setting up (receiving its partition, building its
	// working copies), not mining — that window is bounded by the
	// heartbeat timeout, so pass 0 never counts as lagging. And the lag
	// must hold for stragglerSustainTicks consecutive ticks: a healthy
	// node whose beacon lands mid-burst looks far behind for one tick
	// and caught up on the next, while a genuinely slow partition stays
	// behind every tick.
	var stragMu sync.Mutex
	var strag *stragglerError
	watchStop := make(chan struct{})
	if cfg.StragglerLagPasses > 0 && n > 1 {
		go func() {
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
					host := s.hostOf[i]
					// Each host triggers at most once per session, and firing
					// only makes sense with somewhere to move work: another
					// alive daemon, or an idle pool worker to grow onto.
					if s.rebalancedHost[peerAddrs[i]] {
						continue
					}
					if s.leastLoadedAlive(host) < 0 && cfg.AcquireWorkers == nil {
						continue
					}
					stragMu.Lock()
					strag = &stragglerError{node: i, host: host, addr: peerAddrs[i], lag: lag}
					stragMu.Unlock()
					cancelAttempt()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(watchStop)

	if dead := live.DeadNodes(); len(dead) > 0 {
		hosts := make(map[int]bool)
		var deadHosts []int
		for _, node := range dead {
			if h := s.hostOf[node]; !hosts[h] {
				hosts[h] = true
				deadHosts = append(deadHosts, h)
			}
		}
		return nil, deadHosts, fmt.Errorf("distmine: %w", live.Dead(dead[0]))
	}
	stragMu.Lock()
	st := strag
	stragMu.Unlock()
	if st != nil {
		return nil, nil, fmt.Errorf("distmine: %w", st)
	}
	// A pending resize aborted the attempt: whatever fallout the abort
	// left in nodeErrs is cancellation noise, not failure. (If every
	// terminal report still arrived, the attempt beat the resize to the
	// finish and the result stands.)
	if pn := cfg.Elastic.pendingN(); pn > 0 {
		complete := true
		for _, ok := range gotDone {
			if !ok {
				complete = false
				break
			}
		}
		if !complete {
			return nil, nil, fmt.Errorf("distmine: %w", &resizeError{n: pn})
		}
	}
	for _, err := range nodeErrs {
		if err != nil {
			return nil, nil, fmt.Errorf("distmine: %w", err)
		}
	}
	for i, ok := range gotDone {
		if !ok {
			return nil, nil, fmt.Errorf("distmine: node %d (%s): no terminal report", i, peerAddrs[i])
		}
	}
	// Graceful shutdown: release the daemons' sessions.
	for _, c := range conns {
		writeFrameDeadline(c, transport.MsgShutdown, nil, cfg.IOTimeout)
	}

	// ---- Merge the nodes' Found lists once, exactly as core.MinePMIHP
	// does. ----
	if len(dones[0].GlobalCounts) != s.p.NumItems {
		return nil, nil, fmt.Errorf("distmine: node 0 reported %d global item counts, want %d",
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
	res.Imbalance = imbalanceRatio(busy)
	if res.Imbalance > 0 {
		cfg.Obs.SetFloatGauge("pass_imbalance_ratio", res.Imbalance)
	}
	return res, nil, nil
}
