// Package sched is the multi-tenant elastic cluster scheduler: node
// daemons register into a shared worker Pool (join/leave/heartbeat over
// the transport wire protocol), and a Scheduler admits many concurrent
// MineCluster sessions against that pool — FIFO, with admission control
// keyed on PeakHeldBytes estimates — while running sessions scale their
// logical-node count up or down mid-run through the checkpoint/resume
// path (distmine.ElasticControl).
//
// The paper's evaluation assumes one dedicated cluster per mining run;
// this package turns the cluster's fault-tolerance machinery (liveness,
// re-split and resume) into the scheduler that machinery was always most
// of: membership is just liveness pointed at a registry, admission is
// just PeakHeldBytes accounting pointed at capacity, and elastic resize
// is just the recovery path with the owner choosing the roster.
package sched

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pmihp/internal/transport"
)

// PoolOptions tunes a worker pool.
type PoolOptions struct {
	// HeartbeatTimeout is the quiet interval after which a member is
	// dropped (zero: 5s). Members also drop immediately when their
	// registration connection closes or they send MsgPoolLeave.
	HeartbeatTimeout time.Duration
	// Logf, when non-nil, receives membership lifecycle logs.
	Logf func(format string, args ...any)
}

// Member is one registered worker daemon.
type Member struct {
	// Addr is the daemon's dialable listen address — what sessions put
	// in their rosters.
	Addr string
	// CapacityBytes bounds the session bytes admission control may
	// reserve against this member (0: unlimited).
	CapacityBytes int64
}

// poolMember is a member plus its lease accounting.
type poolMember struct {
	info Member
	conn net.Conn
	// sessions counts active leases (logical placements by admitted
	// sessions); a member with zero is idle and available to the
	// straggler detector's grow path.
	sessions int
	// reserved is the admission-reserved bytes against CapacityBytes.
	reserved int64
}

// Pool is the shared worker registry. Daemons dial in with a
// PurposePool Hello followed by MsgPoolJoin, then heartbeat on the same
// connection; coordinators lease members for sessions through the
// Scheduler.
type Pool struct {
	opt PoolOptions

	mu      sync.Mutex
	cond    *sync.Cond
	members map[string]*poolMember
	closed  bool
	ln      net.Listener
}

// NewPool returns a pool ready to Serve.
func NewPool(opt PoolOptions) *Pool {
	if opt.HeartbeatTimeout <= 0 {
		opt.HeartbeatTimeout = 5 * time.Second
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	p := &Pool{opt: opt, members: make(map[string]*poolMember)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Serve accepts member registrations until the listener closes.
func (p *Pool) Serve(ln net.Listener) error {
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go p.handleConn(conn)
	}
}

// Close stops the pool: the listener closes, every member connection is
// dropped, and blocked Lease/WaitMembers calls return errors.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	ln := p.ln
	for _, m := range p.members {
		m.conn.Close()
	}
	p.members = make(map[string]*poolMember)
	p.cond.Broadcast()
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// handleConn runs one member's registration: Hello, PoolJoin, then
// heartbeats until leave/quiet/close.
func (p *Pool) handleConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(p.opt.HeartbeatTimeout))
	t, payload, err := transport.ReadFrame(conn, nil)
	if err != nil || t != transport.MsgHello {
		conn.Close()
		return
	}
	hello, err := transport.DecodeHello(payload)
	if err != nil || hello.Purpose != transport.PurposePool {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Now().Add(p.opt.HeartbeatTimeout))
	t, payload, err = transport.ReadFrame(conn, nil)
	if err != nil || t != transport.MsgPoolJoin {
		conn.Close()
		return
	}
	join, err := transport.DecodePoolJoin(payload)
	if err != nil {
		conn.Close()
		return
	}

	m := &poolMember{info: Member{Addr: join.Addr, CapacityBytes: join.CapacityBytes}, conn: conn}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	if old := p.members[join.Addr]; old != nil {
		// A rejoin (daemon restarted, or its previous connection is a
		// half-dead socket we have not timed out yet): the new
		// registration wins, with fresh lease accounting.
		old.conn.Close()
	}
	p.members[join.Addr] = m
	p.cond.Broadcast()
	p.mu.Unlock()
	p.opt.Logf("sched: pool member joined: %s (capacity %d bytes)", join.Addr, join.CapacityBytes)

	for {
		conn.SetReadDeadline(time.Now().Add(p.opt.HeartbeatTimeout))
		t, _, err := transport.ReadFrame(conn, nil)
		if err != nil || t == transport.MsgPoolLeave {
			p.drop(join.Addr, m, err)
			return
		}
		// Heartbeats (and anything else a future version sends) just
		// refresh the deadline.
	}
}

// drop deregisters a member if it is still the current registration for
// its address.
func (p *Pool) drop(addr string, m *poolMember, cause error) {
	m.conn.Close()
	p.mu.Lock()
	if p.members[addr] == m {
		delete(p.members, addr)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	if cause != nil {
		p.opt.Logf("sched: pool member lost: %s (%v)", addr, cause)
	} else {
		p.opt.Logf("sched: pool member left: %s", addr)
	}
}

// Members returns the current membership, sorted by address.
func (p *Pool) Members() []Member {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Member, 0, len(p.members))
	for _, m := range p.members {
		out = append(out, m.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// WaitMembers blocks until at least n members are registered.
func (p *Pool) WaitMembers(ctx context.Context, n int) error {
	stop := context.AfterFunc(ctx, p.cond.Broadcast)
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if len(p.members) >= n {
			return nil
		}
		if p.closed {
			return fmt.Errorf("sched: pool closed waiting for %d members (have %d)", n, len(p.members))
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sched: waiting for %d pool members (have %d): %w", n, len(p.members), err)
		}
		p.cond.Wait()
	}
}

// leaseLocked reserves k distinct members able to take perWorker more
// reserved bytes each, preferring the least-loaded (fewest sessions,
// address breaking ties, so placement is deterministic for a given pool
// state). Returns nil when fewer than k qualify. idleOnly restricts
// candidates to members with no active lease.
func (p *Pool) leaseLocked(k int, perWorker int64, idleOnly bool) []string {
	var cands []*poolMember
	for _, m := range p.members {
		if idleOnly && m.sessions > 0 {
			continue
		}
		if cap := m.info.CapacityBytes; cap > 0 && m.reserved+perWorker > cap {
			continue
		}
		cands = append(cands, m)
	}
	if len(cands) < k {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sessions != cands[j].sessions {
			return cands[i].sessions < cands[j].sessions
		}
		return cands[i].info.Addr < cands[j].info.Addr
	})
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		cands[i].sessions++
		cands[i].reserved += perWorker
		addrs[i] = cands[i].info.Addr
	}
	return addrs
}

// Lease blocks until k distinct members can each accept perWorker more
// reserved bytes, reserves them, and returns their addresses. The
// Scheduler's single admitter calls this for the queue head only, which
// is what makes admission FIFO-fair.
func (p *Pool) Lease(ctx context.Context, k int, perWorker int64) ([]string, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sched: lease of %d workers", k)
	}
	stop := context.AfterFunc(ctx, p.cond.Broadcast)
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, fmt.Errorf("sched: pool closed")
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sched: leasing %d workers: %w", k, err)
		}
		if addrs := p.leaseLocked(k, perWorker, false); addrs != nil {
			return addrs, nil
		}
		p.cond.Wait()
	}
}

// AcquireIdle non-blockingly leases up to max members that currently
// hold no lease at all — the straggler detector's grow path, which must
// never steal capacity from admitted sessions. Returns however many
// idle members exist, possibly none.
func (p *Pool) AcquireIdle(max int, perWorker int64) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || max <= 0 {
		return nil
	}
	for k := max; k > 0; k-- {
		if addrs := p.leaseLocked(k, perWorker, true); addrs != nil {
			return addrs
		}
	}
	return nil
}

// Release returns leased members to the pool (a session completed or
// shrank). Addresses of members that have since dropped are ignored.
func (p *Pool) Release(addrs []string, perWorker int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range addrs {
		m := p.members[a]
		if m == nil {
			continue
		}
		if m.sessions > 0 {
			m.sessions--
		}
		if m.reserved >= perWorker {
			m.reserved -= perWorker
		} else {
			m.reserved = 0
		}
	}
	p.cond.Broadcast()
}
