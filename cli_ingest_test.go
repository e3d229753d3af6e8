package memotable_test

// End-to-end tests of the live-ingestion CLI surface: tracecap -stdin /
// -listen must replay a streamed v2 trace into the live banks, print
// snapshots identical to the offline comparator (memosim -ingest), seal
// cleanly ended streams, and classify torn, corrupt or v1 streams with
// exit code 3.

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runCLIStdin is runCLI with bytes piped into the process's stdin.
func runCLIStdin(t *testing.T, stdin []byte, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdin = bytes.NewReader(stdin)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %s: %v", bin, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func TestTracecapIngestStdinMatchesOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and executes command binaries")
	}
	dir := t.TempDir()
	compressed := filepath.Join(dir, "compressed.mtrc")
	if _, stderr, code := runCLI(t, nil, cliBin(t, "tracecap"), "-out", compressed, "-kernel", "TRFD", "-compress"); code != 0 {
		t.Fatalf("tracecap -compress exited %d: %s", code, stderr)
	}
	for _, path := range []string{captureTrace(t, dir), compressed} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		liveOut, liveErr, code := runCLIStdin(t, data, cliBin(t, "tracecap"), "-stdin")
		if code != 0 {
			t.Fatalf("%s: tracecap -stdin exited %d: %s", path, code, liveErr)
		}
		if !strings.Contains(liveOut, "memo-table hit ratios") || !strings.Contains(liveOut, "speedup") {
			t.Fatalf("%s: live snapshot missing banks:\n%s", path, liveOut)
		}
		if !strings.Contains(liveErr, "ingested ") {
			t.Fatalf("%s: stderr = %q, want ingest summary", path, liveErr)
		}

		// The acceptance differential: the offline comparator renders the
		// byte-identical final snapshot from the same stream bytes.
		offOut, offErr, code := runCLI(t, nil, cliBin(t, "memosim"), "-ingest", path)
		if code != 0 {
			t.Fatalf("%s: memosim -ingest exited %d: %s", path, code, offErr)
		}
		if liveOut != offOut {
			t.Fatalf("%s: live and offline snapshots differ:\n--- live ---\n%s\n--- offline ---\n%s", path, liveOut, offOut)
		}
	}
}

func TestTracecapIngestListenSocket(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and executes command binaries")
	}
	dir := t.TempDir()
	path := captureTrace(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Unix socket paths are length-limited; keep it short.
	sock := filepath.Join(os.TempDir(), fmt.Sprintf("tcap-%d.sock", os.Getpid()))
	defer func() { _ = os.Remove(sock) }()

	cmd := exec.Command(cliBin(t, "tracecap"), "-listen", "unix:"+sock, "-snapshot", "5000")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	var conn net.Conn
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err = net.Dial("unix", sock)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("socket never came up: %v (stderr: %s)", err, stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Dribble the stream in small chunks, like a real producer.
	for off := 0; off < len(data); off += 8 << 10 {
		end := off + 8<<10
		if end > len(data) {
			end = len(data)
		}
		if _, err := conn.Write(data[off:end]); err != nil {
			t.Fatalf("writing stream: %v", err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("tracecap -listen failed: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "memo-table hit ratios") {
		t.Fatalf("listen snapshot missing banks:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "tracecap: ingested ") {
		t.Fatalf("stderr = %q, want ingest summary", stderr.String())
	}
}

func TestTracecapIngestFailureModes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and executes command binaries")
	}
	dir := t.TempDir()
	path := captureTrace(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x01
	bin := cliBin(t, "tracecap")

	t.Run("usage", func(t *testing.T) {
		for _, args := range [][]string{
			{"-listen", "unix:/tmp/x.sock", "-stdin"},
			{"-stdin", "-out", filepath.Join(dir, "x.mtrc")},
			{"-stdin", "-store", dir}, // the trace store is gone; so is its flag
		} {
			if _, stderr, code := runCLIStdin(t, nil, bin, args...); code != 2 {
				t.Fatalf("%v: exit %d (stderr %s), want 2", args, code, stderr)
			}
		}
	})

	t.Run("torn stream exits 3", func(t *testing.T) {
		_, stderr, code := runCLIStdin(t, data[:len(data)-50], bin, "-stdin")
		if code != 3 || !strings.Contains(stderr, "torn") {
			t.Fatalf("exit %d stderr %q, want 3 with torn tail", code, stderr)
		}
	})

	t.Run("corrupt stream exits 3", func(t *testing.T) {
		_, stderr, code := runCLIStdin(t, corrupt, bin, "-stdin")
		if code != 3 {
			t.Fatalf("exit %d stderr %q, want 3", code, stderr)
		}
	})

	t.Run("injected ingest fault exits 1", func(t *testing.T) {
		_, stderr, code := runCLIStdin(t, data, bin, "-stdin", "-faults", "seed=1;ingest.frame:count=1")
		if code != 1 || !strings.Contains(stderr, "injected fault") {
			t.Fatalf("exit %d stderr %q, want 1 with injected fault", code, stderr)
		}
	})

	t.Run("memosim -ingest corrupt exits 3", func(t *testing.T) {
		bad := filepath.Join(dir, "bad.mtrc")
		if err := os.WriteFile(bad, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, code := runCLI(t, nil, cliBin(t, "memosim"), "-ingest", bad)
		if code != 3 {
			t.Fatalf("exit %d stderr %q, want 3", code, stderr)
		}
	})

	// A v1 trace has no frames, so a live ingest cannot tell its torn
	// tail from its end: both ingest paths refuse it, naming v2, while
	// tracereplay still reads the file.
	t.Run("v1 stream exits 3", func(t *testing.T) {
		v1 := filepath.Join("internal", "trace", "testdata", "vdiff-16.mtrc")
		seed, err := os.ReadFile(v1)
		if err != nil {
			t.Fatal(err)
		}
		if _, stderr, code := runCLIStdin(t, seed, bin, "-stdin"); code != 3 || !strings.Contains(stderr, "v2") {
			t.Fatalf("tracecap -stdin: exit %d stderr %q, want 3 naming v2", code, stderr)
		}
		if _, stderr, code := runCLI(t, nil, cliBin(t, "memosim"), "-ingest", v1); code != 3 || !strings.Contains(stderr, "v2") {
			t.Fatalf("memosim -ingest: exit %d stderr %q, want 3 naming v2", code, stderr)
		}
		if _, stderr, code := runCLI(t, nil, cliBin(t, "tracereplay"), "-in", v1); code != 0 {
			t.Fatalf("tracereplay -in: exit %d stderr %q, want 0", code, stderr)
		}
	})

	t.Run("memosim -ingest missing file exits 1", func(t *testing.T) {
		_, _, code := runCLI(t, nil, cliBin(t, "memosim"), "-ingest", filepath.Join(dir, "absent.mtrc"))
		if code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
	})
}
