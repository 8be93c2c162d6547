package distmine

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pmihp/internal/core"
	"pmihp/internal/mining"
	"pmihp/internal/obs"
	"pmihp/internal/transport"
	"pmihp/internal/txdb"
)

// DaemonOptions tunes a node daemon.
type DaemonOptions struct {
	// IOTimeout bounds individual reads/writes; WaitTimeout bounds waits
	// for cluster-level progress (a peer reaching a collective, an Init
	// arriving for an early peer connection). Zeros select the transport
	// defaults (30s / 120s).
	IOTimeout   time.Duration
	WaitTimeout time.Duration
	// Retry bounds the exchange's dial/step retries.
	Retry transport.RetryPolicy
	// Logf, when non-nil, receives daemon lifecycle logs.
	Logf func(format string, args ...any)
	// Obs, when non-nil, receives every hosted node's pass events,
	// collective spans, and poll batches (the -metrics-addr /-trace-json
	// sink of pmihp-node). Sessions share the recorder; span events carry
	// the daemon's listen address.
	Obs *obs.Recorder
}

// fallbackHeartbeat is the control-plane beacon interval for an Init
// whose HeartbeatMillis is not positive. The coordinator always sends its
// own interval; the fallback keeps a malformed Init from reaching
// time.NewTicker, which panics on a non-positive interval.
const fallbackHeartbeat = 500 * time.Millisecond

// sessionKey identifies one logical node of one mining session. An
// owner's resize may list an address more than once, stacking several
// logical nodes of one session on a daemon, so sessions are keyed by
// (cluster, node) and peer connections are routed by their Hello's To
// field.
type sessionKey struct {
	cluster uint64
	node    int32
}

// daemonSession is one registered logical node: its peer exchange, a
// teardown trigger, and a drained signal. A re-Init for the same key
// supersedes a draining predecessor by calling stop and waiting on
// done instead of rejecting the new session.
type daemonSession struct {
	x    *transport.TCPExchange
	stop func()
	done chan struct{}
}

// Daemon is a PMIHP worker process: one listener serving the
// coordinator's control plane and peers' exchange traffic, dispatched
// by each connection's Hello. A daemon can serve many mining sessions
// (and, when a resize repeats its address, several logical nodes of one
// session) over its lifetime; each logical node is driven by its own
// control connection.
type Daemon struct {
	opt  DaemonOptions
	addr string

	mu       sync.Mutex
	sessions map[sessionKey]*daemonSession
	// registered is closed, and replaced, whenever a session registers:
	// it wakes peer connections that arrived before their node's Init.
	registered chan struct{}
	// stopped is closed when Serve returns, ending those waits.
	stopped chan struct{}
}

// NewDaemon returns a daemon with the given options.
func NewDaemon(opt DaemonOptions) *Daemon {
	if opt.WaitTimeout <= 0 {
		opt.WaitTimeout = 120 * time.Second
	}
	if opt.IOTimeout <= 0 {
		opt.IOTimeout = 30 * time.Second
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	return &Daemon{
		opt:        opt,
		sessions:   make(map[sessionKey]*daemonSession),
		registered: make(chan struct{}),
		stopped:    make(chan struct{}),
	}
}

// ActiveSessions reports how many logical-node sessions the daemon
// currently hosts — zero once every session has fully drained. The
// multi-tenant scheduler's tests use it to prove completed sessions
// leave no orphans behind.
func (d *Daemon) ActiveSessions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sessions)
}

// Serve accepts and dispatches connections until the listener closes.
// A daemon serves one listener: call Serve once.
func (d *Daemon) Serve(ln net.Listener) error {
	d.addr = ln.Addr().String()
	d.opt.Obs.SetDaemon(d.addr)
	defer close(d.stopped)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go d.handleConn(conn)
	}
}

// handleConn reads the Hello and routes the connection.
func (d *Daemon) handleConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(d.opt.WaitTimeout))
	t, payload, err := transport.ReadFrame(conn, nil)
	if err != nil || t != transport.MsgHello {
		conn.Close()
		return
	}
	hello, err := transport.DecodeHello(payload)
	if err != nil {
		conn.Close()
		return
	}
	switch hello.Purpose {
	case transport.PurposeControl:
		d.handleControl(conn, hello)
	case transport.PurposeCube, transport.PurposePoll:
		// A peer may connect before this node's Init has been processed
		// (the coordinator initializes nodes one by one); wait for the
		// session to appear.
		x, err := d.exchange(hello.ClusterID, hello.To)
		if err != nil {
			d.opt.Logf("pmihp-node: dropping peer conn for cluster %x node %d: %v", hello.ClusterID, hello.To, err)
			conn.Close()
			return
		}
		x.HandlePeerConn(conn, hello)
	default:
		conn.Close()
	}
}

// exchange waits for the logical node's session to be registered and
// returns its exchange. The wait ends early when Serve returns.
func (d *Daemon) exchange(clusterID uint64, node int32) (*transport.TCPExchange, error) {
	key := sessionKey{clusterID, node}
	timeout := time.NewTimer(d.opt.WaitTimeout)
	defer timeout.Stop()
	for {
		d.mu.Lock()
		ds, registered := d.sessions[key], d.registered
		d.mu.Unlock()
		if ds != nil {
			return ds.x, nil
		}
		select {
		case <-registered:
		case <-d.stopped:
			return nil, fmt.Errorf("no session for cluster %x node %d: daemon stopped", clusterID, node)
		case <-timeout.C:
			return nil, fmt.Errorf("no session for cluster %x node %d after %v", clusterID, node, d.opt.WaitTimeout)
		}
	}
}

// handleControl runs one logical node's mining session driven by the
// coordinator: Init in, heartbeats and (from node 0) progress
// checkpoints during, NodeDone (or ErrorMsg) out, Shutdown to finish.
func (d *Daemon) handleControl(conn net.Conn, hello transport.Hello) {
	defer conn.Close()

	// All control-plane writes (heartbeats, progress, the terminal
	// report) share the connection; serialize them.
	var writeMu sync.Mutex
	write := func(msgType uint8, payload []byte, timeout time.Duration) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		return writeFrameDeadline(conn, msgType, payload, timeout)
	}
	fail := func(err error) {
		d.opt.Logf("pmihp-node: session %x: %v", hello.ClusterID, err)
		write(transport.MsgError, transport.AppendError(nil, transport.ErrorMsg{Text: err.Error()}), d.opt.IOTimeout)
	}

	conn.SetReadDeadline(time.Now().Add(d.opt.WaitTimeout))
	t, payload, err := transport.ReadFrame(conn, nil)
	if err != nil {
		d.opt.Logf("pmihp-node: session %x: reading init: %v", hello.ClusterID, err)
		return
	}
	if t != transport.MsgInit {
		fail(fmt.Errorf("expected init, got message type %d", t))
		return
	}
	init, err := transport.DecodeInit(payload)
	if err != nil {
		fail(fmt.Errorf("bad init: %w", err))
		return
	}
	if init.ClusterID != hello.ClusterID {
		fail(fmt.Errorf("init cluster %x on control conn for %x", init.ClusterID, hello.ClusterID))
		return
	}
	db, err := txdb.ReadDB(bytes.NewReader(init.DB))
	if err != nil {
		fail(fmt.Errorf("decoding partition: %w", err))
		return
	}
	var resume *transport.Checkpoint
	if len(init.Resume) > 0 {
		c, cerr := transport.DecodeCheckpoint(init.Resume)
		if cerr != nil {
			// A checkpoint this build cannot speak (future version, corrupt
			// bytes) degrades to an attributed session error, never a panic.
			fail(fmt.Errorf("node %d: decoding resume checkpoint: %w", init.NodeID, cerr))
			return
		}
		resume = &c
	}

	x, err := transport.NewTCP(transport.TCPOptions{
		ClusterID:   init.ClusterID,
		NodeID:      int(init.NodeID),
		Nodes:       int(init.Nodes),
		Peers:       init.PeerAddrs,
		Retry:       d.opt.Retry,
		IOTimeout:   d.opt.IOTimeout,
		WaitTimeout: d.opt.WaitTimeout,
	})
	if err != nil {
		fail(err)
		return
	}
	// stop is closed when the coordinator shuts the session down — or
	// abandons it (control connection breaks), or a re-Init for the same
	// (cluster, node) supersedes this registration. Closing the exchange
	// unblocks any collective this node is waiting in, so an aborted
	// session's survivors fail over quickly instead of waiting out their
	// timeouts.
	stop := make(chan struct{})
	var stopOnce sync.Once
	signalStop := func() {
		stopOnce.Do(func() {
			close(stop)
			x.Close()
		})
	}

	// Register the session, superseding a draining predecessor with the
	// same key: a coordinator that reconnects and re-Inits the same
	// logical node must not be wedged by the previous registration's
	// goroutine still waiting out its teardown.
	// The predecessor is told to stop and this registration waits for it
	// to fully drain, so its peer exchange never shadows the new one.
	ds := &daemonSession{x: x, stop: signalStop, done: make(chan struct{})}
	key := sessionKey{init.ClusterID, init.NodeID}
	deadline := time.Now().Add(d.opt.WaitTimeout)
	for {
		d.mu.Lock()
		old := d.sessions[key]
		if old == nil {
			d.sessions[key] = ds
			close(d.registered)
			d.registered = make(chan struct{})
			d.mu.Unlock()
			break
		}
		d.mu.Unlock()
		d.opt.Logf("pmihp-node: session %x: node %d re-init supersedes a draining session", init.ClusterID, init.NodeID)
		old.stop()
		drained := time.NewTimer(time.Until(deadline))
		select {
		case <-old.done:
			drained.Stop()
		case <-drained.C:
			x.Close()
			fail(fmt.Errorf("cluster %x node %d: superseded session did not drain within %v", init.ClusterID, init.NodeID, d.opt.WaitTimeout))
			return
		}
	}
	defer func() {
		d.mu.Lock()
		if d.sessions[key] == ds {
			delete(d.sessions, key)
		}
		d.mu.Unlock()
		x.Close()
		close(ds.done)
	}()
	go func() {
		for {
			conn.SetReadDeadline(time.Now().Add(time.Hour))
			t, _, err := transport.ReadFrame(conn, nil)
			if err != nil || t == transport.MsgShutdown {
				signalStop()
				return
			}
		}
	}()

	// Heartbeat writer: the coordinator declares this node dead after a
	// configurable quiet interval, so beat for the whole session — mining
	// itself produces no control-plane traffic. Each beacon carries the
	// node's pass position (counted by the onPass hook below), which is
	// what the coordinator's straggler detector compares across the
	// fleet.
	var passes atomic.Int32
	interval := time.Duration(init.HeartbeatMillis) * time.Millisecond
	if interval <= 0 {
		interval = fallbackHeartbeat
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				hb := transport.AppendHeartbeat(nil, transport.Heartbeat{Passes: passes.Load()})
				if write(transport.MsgHeartbeat, hb, d.opt.IOTimeout) != nil {
					signalStop()
					return
				}
			}
		}
	}()

	hooks := core.NodeHooks{
		Resume: resume,
		OnPass: func() { passes.Add(1) },
	}
	if init.NodeID == 0 {
		hooks.Progress = func(stage uint8, counts []uint32) {
			ck := transport.Checkpoint{
				ClusterID:    init.ClusterID,
				Nodes:        init.Nodes,
				Stage:        stage,
				GlobalCounts: counts,
			}
			if err := write(transport.MsgProgress, transport.AppendCheckpoint(nil, ck), d.opt.IOTimeout); err != nil {
				d.opt.Logf("pmihp-node: session %x: sending %s progress: %v", init.ClusterID, transport.StageName(stage), err)
			}
		}
	}

	from := "fresh"
	if resume != nil {
		from = "resume from " + transport.StageName(resume.Stage)
	}
	d.opt.Logf("pmihp-node: session %x: node %d/%d, %d docs, %s partitions (%s)",
		init.ClusterID, init.NodeID, init.Nodes, db.Len(), mining.Partitioner(init.Partitioner), from)
	outcome, err := core.RunNode(x, db, core.NodeParams{
		TotalDocs: int(init.TotalDocs),
		NumItems:  int(init.NumItems),
		Opts: mining.Options{
			MinSupCount:      int(init.GlobalMin),
			THTEntries:       int(init.THTEntries),
			PartitionSize:    int(init.PartitionSize),
			MaxK:             int(init.MaxK),
			IntraNodeWorkers: int(init.Workers),
			Partitioner:      mining.Partitioner(init.Partitioner),
			Obs:              d.opt.Obs,
		},
	}, hooks)
	if err != nil {
		fail(fmt.Errorf("node %d: %w", init.NodeID, err))
		// Keep the session registered until Shutdown so surviving peers'
		// retries meet a live (if failing) endpoint rather than a vanished
		// one; the coordinator aborts everyone on our ErrorMsg.
		<-stop
		return
	}

	done := transport.NodeDone{
		Node:         init.NodeID,
		Found:        outcome.Found,
		Stats:        x.Stats().Snapshot(),
		PhaseSeconds: outcome.PhaseSeconds,
		BusySeconds:  outcome.Miner.Work.Seconds() + outcome.Server.Work.Seconds(),
	}
	if init.NodeID == 0 {
		done.GlobalCounts = make([]uint32, len(outcome.GlobalCounts))
		for it, c := range outcome.GlobalCounts {
			done.GlobalCounts[it] = uint32(c)
		}
	}
	if err := write(transport.MsgNodeDone, transport.AppendNodeDone(nil, done), d.opt.WaitTimeout); err != nil {
		d.opt.Logf("pmihp-node: session %x: sending done: %v", init.ClusterID, err)
		return
	}
	<-stop
	d.opt.Logf("pmihp-node: session %x: node %d finished", init.ClusterID, init.NodeID)
}
