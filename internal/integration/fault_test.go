package integration

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/corpus"
	"pmihp/internal/distmine"
	"pmihp/internal/mining"
	"pmihp/internal/transport"
)

// nodeBin is the pmihp-node binary built once for the fault-injection
// suite.
var (
	nodeBin  string
	buildErr error
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pmihp-fault-bin")
	if err != nil {
		buildErr = err
	} else {
		bin := filepath.Join(dir, "pmihp-node")
		out, err := exec.Command("go", "build", "-o", bin, "pmihp/cmd/pmihp-node").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build pmihp/cmd/pmihp-node: %v\n%s", err, out)
		} else {
			nodeBin = bin
		}
	}
	code := m.Run()
	if dir != "" {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

var faultRetry = transport.RetryPolicy{Attempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

// faultCase is one scripted failure scenario.
type faultCase struct {
	name   string
	nodes  int
	plan   FaultPlan
	policy distmine.FailurePolicy
	// corpus overrides the suite's default database (corpus B, small
	// scale). The straggler case mines the day-skewed preset, whose
	// equal-count partitions are organically imbalanced.
	corpus corpus.Config
	// respawn spawns replacements instead of shrinking the roster.
	respawn bool
	// wantErr: the session must fail, with an error containing each
	// substring. Otherwise it must succeed byte-identically.
	wantErr []string
	// wantLogs must each appear in the coordinator's recovery log.
	wantLog []string
	// stragglerLag arms the coordinator's straggler detector (0 leaves
	// it off, the default).
	stragglerLag int
	// heartbeat overrides the session heartbeat interval (0 = the
	// suite's 50ms default). Straggler cases shorten it so the healthy
	// nodes' reported pass positions keep up with their real progress.
	heartbeat time.Duration
	// failovers/rebalanced are exact expectations on the metrics.
	// rebalancedMin, when positive, replaces the exact rebalanced check
	// with a floor: how many re-splits fire depends on which daemons lag
	// after each one, which is load- and timing-dependent, while "at least
	// one re-split, zero failovers" is the invariant.
	failovers     int
	rebalanced    int
	rebalancedMin int
}

// faultRecord feeds the harness's JSON summary (PMIHP_FAULT_JSON).
type faultRecord struct {
	Name            string  `json:"name"`
	Nodes           int     `json:"nodes"`
	Policy          string  `json:"policy"`
	Failed          bool    `json:"failed"`
	Identical       bool    `json:"identical"`
	Failovers       int     `json:"failovers"`
	Rebalanced      int     `json:"rebalanced_partitions"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	WireRetries     int64   `json:"wire_retries"`
	Error           string  `json:"error,omitempty"`
}

var (
	faultRecMu   sync.Mutex
	faultRecords []faultRecord
)

func recordFault(r faultRecord) {
	faultRecMu.Lock()
	faultRecords = append(faultRecords, r)
	faultRecMu.Unlock()
}

// TestFaultInjection is the deterministic fault suite: scripted kills,
// wedges, and delays against real worker processes. Every recovered
// session must produce frequent itemsets byte-identical to the
// in-process PMIHP miner; every aborted one must fail fast with an
// attributed error.
func TestFaultInjection(t *testing.T) {
	if nodeBin == "" {
		t.Fatalf("pmihp-node binary unavailable: %v", buildErr)
	}
	cases := []faultCase{
		{
			// Kill a worker while the very first collective is in flight:
			// nothing is checkpointed yet, so recovery is a clean restart,
			// re-split across the survivors.
			name:  "kill-during-item-counts-4node",
			nodes: 4,
			plan: FaultPlan{Faults: []Fault{{
				Observe: 2, Target: 2, Action: ActKill,
				Trigger: Trigger{MsgType: transport.MsgCubeBlock, Phase: transport.PhaseItemCounts, Count: 1},
			}}},
			policy:    distmine.FailurePolicyReassign,
			failovers: 1,
		},
		{
			// Kill a worker after node 0's item-count checkpoint reaches the
			// coordinator (the trigger watches node 0's control plane and
			// kills node 3): the session must resume from the item-counts
			// pass, not restart.
			name:  "kill-after-item-counts-8node",
			nodes: 8,
			plan: FaultPlan{Faults: []Fault{{
				Observe: 0, Target: 3, Action: ActKill,
				Trigger: Trigger{Purpose: transport.PurposeControl, MsgType: transport.MsgProgress, Dir: DirFromWorker, Count: 1},
			}}},
			policy:    distmine.FailurePolicyReassign,
			wantLog:   []string{"resuming from item-counts"},
			failovers: 1,
		},
		{
			// Kill a worker after the THT exchange, on the first poll batch
			// a peer sends it: the session re-splits across the survivors
			// and resumes from the item-count checkpoint, rebuilding the
			// THT on the new partitions.
			name:  "kill-after-tht-8node",
			nodes: 8,
			plan: FaultPlan{Faults: []Fault{{
				Observe: 5, Target: 5, Action: ActKill,
				Trigger: Trigger{Purpose: transport.PurposePoll, MsgType: transport.MsgCandidateBatch, Count: 1},
			}}},
			policy:    distmine.FailurePolicyReassign,
			wantLog:   []string{"resuming from item-counts"},
			failovers: 1,
		},
		{
			// Same post-THT kill, but a freshly spawned process takes the
			// dead worker's roster entry instead of the roster shrinking.
			name:  "kill-after-tht-respawn-4node",
			nodes: 4,
			plan: FaultPlan{Faults: []Fault{{
				Observe: 2, Target: 2, Action: ActKill,
				Trigger: Trigger{Purpose: transport.PurposePoll, MsgType: transport.MsgCandidateBatch, Count: 1},
			}}},
			policy:    distmine.FailurePolicyReassign,
			respawn:   true,
			wantLog:   []string{"resuming from item-counts", "replacement worker"},
			failovers: 1,
		},
		{
			// Under the default abort policy the same kill fails the session
			// fast, attributing the dead worker.
			name:  "kill-aborts-under-abort-policy",
			nodes: 4,
			plan: FaultPlan{Faults: []Fault{{
				Observe: 1, Target: 1, Action: ActKill,
				Trigger: Trigger{MsgType: transport.MsgCubeBlock, Phase: transport.PhaseItemCounts, Count: 1},
			}}},
			policy:  distmine.FailurePolicyAbort,
			wantErr: []string{"node 1"},
		},
		{
			// A wedged worker: alive at the TCP level, but its heartbeats
			// (and eventually its report) silently vanish. Detection is by
			// heartbeat timeout; recovery must still be byte-identical. The
			// silence starts at the worker's first item-count exchange
			// frame, which every session sends before its report; a
			// heartbeat trigger would miss a session shorter than one
			// heartbeat interval.
			name:  "dropped-heartbeats-4node",
			nodes: 4,
			plan: FaultPlan{Faults: []Fault{{
				Observe: 2, Target: 2, Action: ActDropHeartbeats,
				Trigger: Trigger{MsgType: transport.MsgCubeBlock, Phase: transport.PhaseItemCounts, Count: 1},
			}}},
			policy:    distmine.FailurePolicyReassign,
			wantLog:   []string{"no heartbeat"},
			failovers: 1,
		},
		{
			// Delayed peer connections stress retries and timeouts without
			// any failure: no failover may be charged and the result must be
			// identical.
			name:  "delayed-peer-frames-4node",
			nodes: 4,
			plan: FaultPlan{Faults: []Fault{{
				Observe: 1, Target: 1, Action: ActDelay, Delay: 25 * time.Millisecond,
				Trigger: Trigger{Purpose: transport.PurposeCube, MsgType: transport.MsgCubeBlock, Count: 3},
			}}},
			policy:    distmine.FailurePolicyReassign,
			failovers: 0,
		},
		{
			// An organic straggler, no scripted fault at all: equal-count
			// chronological partitioning on the day-skewed corpus hands the
			// low-numbered nodes the long day-0 documents, so their counting
			// passes crawl while the light nodes sprint ahead. The armed
			// detector must notice the sustained pass lag in the heartbeats
			// and re-split the database without the lagging daemon —
			// counted as rebalances, never as failovers — and the recovered
			// session must still be byte-identical. Which heavy node trips
			// the detector first depends on scheduling, so the log
			// assertions name the event, not the node.
			name:          "straggler-rebalance-4node",
			nodes:         4,
			corpus:        stragglerCorpus(),
			policy:        distmine.FailurePolicyReassign,
			stragglerLag:  3,
			heartbeat:     5 * time.Millisecond,
			wantLog:       []string{"straggler: node ", "dropped straggler "},
			failovers:     0,
			rebalancedMin: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runFaultCase(t, tc)
		})
	}
	writeFaultSummary(t)
}

// stragglerCorpus is the day-skewed database the straggler case mines:
// the skewed preset, scaled up until the heavy day-0 partition keeps its
// node counting for hundreds of milliseconds while the light nodes
// finish in tens — enough real lag for the sustained-lag detector to
// fire well inside the session.
func stragglerCorpus() corpus.Config {
	cfg := corpus.CorpusSkewed(corpus.Small)
	cfg.Docs = 336
	return cfg
}

func runFaultCase(t *testing.T, tc faultCase) {
	var logMu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		logMu.Lock()
		logs = append(logs, line)
		logMu.Unlock()
		t.Log(line)
	}
	fc, err := StartFaultCluster(nodeBin, tc.nodes, tc.plan, logf)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Stop()

	ccfg := tc.corpus
	if ccfg.Docs == 0 {
		ccfg = corpus.CorpusB(corpus.Small)
	}
	db := buildDB(t, ccfg)
	opts := mining.Options{MinSupCount: 2, MaxK: 3}
	ref, err := core.MinePMIHP(db, core.PMIHPConfig{Nodes: tc.nodes}, opts)
	if err != nil {
		t.Fatal(err)
	}

	cfg := distmine.ClusterConfig{
		Addrs:              fc.Addrs(),
		Retry:              faultRetry,
		FailurePolicy:      tc.policy,
		HeartbeatInterval:  50 * time.Millisecond,
		HeartbeatTimeout:   500 * time.Millisecond,
		MineTimeout:        2 * time.Minute,
		StragglerLagPasses: tc.stragglerLag,
		Logf:               logf,
	}
	if tc.heartbeat > 0 {
		cfg.HeartbeatInterval = tc.heartbeat
	}
	if tc.respawn {
		cfg.Respawn = fc.SpawnReplacement
	}
	got, err := distmine.MineCluster(db, cfg, opts)

	rec := faultRecord{Name: tc.name, Nodes: tc.nodes, Policy: string(tc.policy), Failed: err != nil}
	if err != nil {
		rec.Error = err.Error()
	}
	defer func() { recordFault(rec) }()

	if len(tc.wantErr) > 0 {
		if err == nil {
			t.Fatal("expected the session to fail")
		}
		for _, want := range tc.wantErr {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	rec.Failovers = got.Metrics.Failovers
	rec.Rebalanced = got.Metrics.RebalancedPartitions
	rec.RecoverySeconds = got.Metrics.RecoverySeconds
	rec.WireRetries = got.Metrics.WireRetries

	// The core invariant: a recovered session is byte-identical to the
	// in-process miner — same itemsets, same exact counts, same order.
	want := ref.Result.Frequent
	if len(got.Frequent) != len(want) {
		t.Fatalf("frequent list length %d, want %d", len(got.Frequent), len(want))
	}
	for i := range want {
		if !want[i].Set.Equal(got.Frequent[i].Set) || want[i].Count != got.Frequent[i].Count {
			t.Fatalf("entry %d: got %v/%d, want %v/%d",
				i, got.Frequent[i].Set, got.Frequent[i].Count, want[i].Set, want[i].Count)
		}
	}
	rec.Identical = true

	if got.Metrics.Failovers != tc.failovers {
		t.Fatalf("failovers = %d, want %d", got.Metrics.Failovers, tc.failovers)
	}
	if tc.rebalancedMin > 0 {
		if got.Metrics.RebalancedPartitions < tc.rebalancedMin {
			t.Fatalf("rebalanced partitions = %d, want >= %d", got.Metrics.RebalancedPartitions, tc.rebalancedMin)
		}
	} else if got.Metrics.RebalancedPartitions != tc.rebalanced {
		t.Fatalf("rebalanced partitions = %d, want %d", got.Metrics.RebalancedPartitions, tc.rebalanced)
	}
	if tc.failovers > 0 && got.Metrics.RecoverySeconds <= 0 {
		t.Fatalf("recovery time not accounted: %+v", got.Metrics)
	}
	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	for _, want := range tc.wantLog {
		if !strings.Contains(joined, want) {
			t.Fatalf("coordinator log does not mention %q:\n%s", want, joined)
		}
	}
}

// writeFaultSummary dumps the collected case records as JSON when
// PMIHP_FAULT_JSON names a file — the artifact the nightly CI job
// uploads.
func writeFaultSummary(t *testing.T) {
	path := os.Getenv("PMIHP_FAULT_JSON")
	if path == "" {
		return
	}
	faultRecMu.Lock()
	defer faultRecMu.Unlock()
	b, err := json.MarshalIndent(struct {
		Cases []faultRecord `json:"cases"`
	}{faultRecords}, "", "  ")
	if err != nil {
		t.Fatalf("marshal fault summary: %v", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatalf("write fault summary: %v", err)
	}
	t.Logf("fault summary written to %s", path)
}
