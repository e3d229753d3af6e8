package memotable_test

// os/exec test for the memosim -serve daemon: boot it on an ephemeral
// port, check the HTTP surface against the offline CLI byte for byte,
// and verify SIGTERM drains to a clean exit. This is the
// shipped-binary version of the in-process tests in internal/service.

import (
	"bufio"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startServeDaemon boots `memosim -serve 127.0.0.1:0` and returns its
// base URL plus the running command. The announced address is read from
// stderr, which keeps draining in the background so the daemon never
// blocks on a full pipe.
func startServeDaemon(t *testing.T, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(cliBin(t, "memosim"),
		append([]string{"-serve", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	// One goroutine both finds the announcement and keeps draining, so
	// the daemon never blocks on a full stderr pipe.
	sc := bufio.NewScanner(stderr)
	addr := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on http://"); ok {
				select {
				case addr <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()

	select {
	case a := <-addr:
		return "http://" + a, cmd
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never announced its listen address")
		return "", nil
	}
}

func TestServeDaemonMatchesOfflineJSON(t *testing.T) {
	// Offline reference bytes for the same selection.
	offline, stderr, code := runCLI(t, nil, cliBin(t, "memosim"),
		"-scale", "tiny", "-run", "table5,figure4", "-json")
	if code != 0 {
		t.Fatalf("offline run exited %d: %s", code, stderr)
	}

	base, cmd := startServeDaemon(t)

	// Cold and warm daemon responses must both match the offline bytes.
	for _, pass := range []string{"cold", "warm"} {
		resp, err := http.Get(base + "/v1/run?run=table5,figure4&scale=tiny&tenant=cli")
		if err != nil {
			t.Fatalf("%s pass: %v", pass, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s pass: %v", pass, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s pass: status %d: %s", pass, resp.StatusCode, body)
		}
		if string(body) != offline {
			t.Fatalf("%s pass: daemon bytes differ from offline -json output", pass)
		}
	}

	// Bad selections are client errors, not daemon failures.
	resp, err := http.Get(base + "/v1/run?run=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown experiment: status %d, want 400", resp.StatusCode)
	}

	// SIGTERM drains and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}
