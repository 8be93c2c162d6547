package distmine

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// SpawnNodes starts n pmihp-node worker processes from the given binary
// (each listening on an ephemeral loopback port), waits for their
// address announcements, and returns the addresses in node order plus a
// stop function that terminates the processes. On error, any processes
// already started are stopped.
func SpawnNodes(bin string, n int, stderr io.Writer) (addrs []string, stop func(), err error) {
	s := NewSpawner(bin, stderr)
	addrs, err = s.SpawnN(n)
	return addrs, s.Stop, err
}

// fakeNode writes a shell script that acts like a pmihp-node binary:
// body runs after the shebang, with the script's own PID available.
func fakeNode(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	script := "#!/bin/sh\n" + body + "\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// pidFromFile reads a PID the fake node recorded.
func pidFromFile(t *testing.T, path string) int {
	t.Helper()
	var pid int
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, err := os.ReadFile(path)
		if err == nil && len(b) > 0 {
			if _, err := fmtSscan(strings.TrimSpace(string(b)), &pid); err == nil {
				return pid
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no pid in %s", path)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fmtSscan(s string, pid *int) (int, error) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	if n == 0 {
		return 0, os.ErrInvalid
	}
	*pid = n
	return 1, nil
}

// processGone reports whether the PID no longer exists (or is a zombie
// already reaped by our Wait).
func processGone(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == syscall.ESRCH
}

func waitGone(t *testing.T, pid int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !processGone(pid) {
		if time.Now().After(deadline) {
			t.Fatalf("process %d still alive", pid)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpawnerStopKillsChildren: the happy path leaves no processes
// behind after Stop.
func TestSpawnerStopKillsChildren(t *testing.T) {
	dir := t.TempDir()
	bin := fakeNode(t, "node", `echo $$ >> `+dir+`/pids
echo "pmihp-node listening on 127.0.0.1:1"
sleep 60`)
	s := NewSpawner(bin, nil)
	addrs, err := s.SpawnN(3)
	if err != nil {
		t.Fatalf("SpawnN: %v", err)
	}
	if len(addrs) != 3 {
		t.Fatalf("got %d addrs, want 3", len(addrs))
	}
	s.Stop()
	b, err := os.ReadFile(dir + "/pids")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Fields(string(b)) {
		var pid int
		if _, err := fmtSscan(line, &pid); err != nil {
			t.Fatalf("bad pid line %q", line)
		}
		waitGone(t, pid)
	}
	// Stop is idempotent and Spawn refuses after it.
	s.Stop()
	if _, err := s.Spawn(); err == nil {
		t.Fatal("Spawn after Stop should fail")
	}
}

// TestSpawnerKillsSilentChild: a worker that never announces is killed
// before the error returns — the regression the -cluster leak fix pins.
func TestSpawnerKillsSilentChild(t *testing.T) {
	pidFile := filepath.Join(t.TempDir(), "pid")
	bin := fakeNode(t, "node", `echo $$ > `+pidFile+`
sleep 60`)
	s := NewSpawner(bin, nil)
	s.AnnounceTimeout = 200 * time.Millisecond
	if _, err := s.Spawn(); err == nil {
		t.Fatal("Spawn of a silent worker should fail")
	} else if !strings.Contains(err.Error(), "did not announce") {
		t.Fatalf("error %q should mention the missing announcement", err)
	}
	waitGone(t, pidFromFile(t, pidFile))
}

// TestSpawnNKillsEarlierChildrenOnFailure: when a later worker fails to
// start, the earlier (healthy, announced) ones are killed too.
func TestSpawnNKillsEarlierChildrenOnFailure(t *testing.T) {
	dir := t.TempDir()
	// The first invocation announces and sleeps; later ones stay silent.
	// A mkdir lock makes the distinction atomic.
	bin := fakeNode(t, "node", `if mkdir `+dir+`/lock 2>/dev/null; then
  echo $$ > `+dir+`/first.pid
  echo "pmihp-node listening on 127.0.0.1:1"
fi
sleep 60`)
	s := NewSpawner(bin, nil)
	s.AnnounceTimeout = 200 * time.Millisecond
	if _, err := s.SpawnN(2); err == nil {
		t.Fatal("SpawnN with a silent second worker should fail")
	}
	waitGone(t, pidFromFile(t, filepath.Join(dir, "first.pid")))
}

// TestSpawnNodesCompat: the function wrapper still stops its children.
func TestSpawnNodesCompat(t *testing.T) {
	pidFile := filepath.Join(t.TempDir(), "pid")
	bin := fakeNode(t, "node", `echo $$ > `+pidFile+`
echo "pmihp-node listening on 127.0.0.1:1"
sleep 60`)
	addrs, stop, err := SpawnNodes(bin, 1, nil)
	if err != nil {
		t.Fatalf("SpawnNodes: %v", err)
	}
	if len(addrs) != 1 || addrs[0] != "127.0.0.1:1" {
		t.Fatalf("addrs = %v", addrs)
	}
	stop()
	waitGone(t, pidFromFile(t, pidFile))
}
