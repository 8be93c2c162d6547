package distmine

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// announcePrefix is the line a node daemon prints on startup; the
// spawner parses the bound address from it.
const announcePrefix = "pmihp-node listening on "

// Spawner starts and owns pmihp-node worker processes. It exists so
// every error path — a child that never announces, a later child
// failing after earlier ones started, a coordinator that dies before
// the first exchange — converges on the same idempotent Stop, leaving
// no orphaned workers behind. It also serves as ClusterConfig.Respawn:
// Spawn starts one replacement daemon on demand.
type Spawner struct {
	// Bin is the pmihp-node binary to exec.
	Bin string
	// Stderr receives the children's stderr (nil discards it).
	Stderr io.Writer
	// AnnounceTimeout bounds the wait for a child's address announcement
	// (zero: 15s).
	AnnounceTimeout time.Duration

	mu      sync.Mutex
	procs   []*exec.Cmd
	stopped bool
}

// NewSpawner returns a spawner for the given binary.
func NewSpawner(bin string, stderr io.Writer) *Spawner {
	return &Spawner{Bin: bin, Stderr: stderr}
}

// Spawn starts one worker on an ephemeral loopback port and returns its
// announced address. A child that fails to announce is killed before
// the error returns — it never outlives the call.
func (s *Spawner) Spawn() (string, error) {
	timeout := s.AnnounceTimeout
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return "", fmt.Errorf("distmine: spawner already stopped")
	}
	s.mu.Unlock()

	cmd := exec.Command(s.Bin, "-listen", "127.0.0.1:0")
	cmd.Stderr = s.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", fmt.Errorf("distmine: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return "", fmt.Errorf("distmine: starting worker (%s): %w", s.Bin, err)
	}
	addr, err := readAnnouncement(out, timeout)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return "", fmt.Errorf("distmine: worker did not announce its address: %w", err)
	}

	s.mu.Lock()
	if s.stopped {
		// Stop raced us; do not leak the child past it.
		s.mu.Unlock()
		cmd.Process.Kill()
		cmd.Wait()
		return "", fmt.Errorf("distmine: spawner already stopped")
	}
	s.procs = append(s.procs, cmd)
	s.mu.Unlock()
	return addr, nil
}

// SpawnN starts n workers and returns their addresses in node order. On
// any failure it stops every child it already started.
func (s *Spawner) SpawnN(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		addr, err := s.Spawn()
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("distmine: node %d: %w", i, err)
		}
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// Stop kills and reaps every spawned worker. It is idempotent and safe
// to call from any goroutine; after Stop, Spawn refuses to start more.
func (s *Spawner) Stop() {
	s.mu.Lock()
	procs := s.procs
	s.procs = nil
	s.stopped = true
	s.mu.Unlock()
	for _, cmd := range procs {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		cmd.Wait()
	}
}

// readAnnouncement scans the daemon's stdout for the announce line.
func readAnnouncement(out io.Reader, timeout time.Duration) (string, error) {
	type lineOrErr struct {
		line string
		err  error
	}
	ch := make(chan lineOrErr, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, announcePrefix) {
				at := strings.Index(line, announcePrefix)
				ch <- lineOrErr{line: strings.TrimSpace(line[at+len(announcePrefix):])}
				return
			}
		}
		err := sc.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		ch <- lineOrErr{err: err}
	}()
	select {
	case r := <-ch:
		return r.line, r.err
	case <-time.After(timeout):
		return "", fmt.Errorf("timed out after %v", timeout)
	}
}
