package memotable_test

// End-to-end tests of the live-ingestion CLI surface: tracecap -stdin /
// -listen must replay a streamed v2 trace into the live banks, print a
// final snapshot that does not depend on how the stream was cut into
// reads or on the rolling snapshots printed before it, and map every
// way an ingest ends to its documented exit code.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// runCLIStdin is runCLI with stdin as the process's standard input.
func runCLIStdin(t *testing.T, stdin io.Reader, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdin = stdin
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

// TestTracecapIngestStdinMatchesOffline is the acceptance differential
// for live ingest: tracecap -stdin over a whole file prints the
// byte-identical final snapshot as a -snapshot 1000 session fed the same
// bytes one at a time, for a plain and a compressed capture.
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

		offOut, offErr, code := runCLIStdin(t, bytes.NewReader(data), cliBin(t, "tracecap"), "-stdin")
		if code != 0 {
			t.Fatalf("%s: tracecap -stdin exited %d: %s", path, code, offErr)
		}
		if !strings.Contains(offOut, "memo-table hit ratios") || !strings.Contains(offOut, "speedup") {
			t.Fatalf("%s: snapshot missing banks:\n%s", path, offOut)
		}
		if !strings.Contains(offErr, "ingested ") {
			t.Fatalf("%s: stderr = %q, want ingest summary", path, offErr)
		}

		// One-byte writes into the pipe: the stream arrives in pieces
		// that cut every frame.
		liveOut, liveErr, code := runCLIStdin(t, iotest.OneByteReader(bytes.NewReader(data)), cliBin(t, "tracecap"), "-stdin", "-snapshot", "1000")
		if code != 0 {
			t.Fatalf("%s: tracecap -stdin -snapshot 1000 exited %d: %s", path, code, liveErr)
		}
		if n := strings.Count(liveOut, "events = "); n < 3 {
			t.Fatalf("%s: %d snapshots printed, want the rolling ones and the final one:\n%s", path, n, liveOut)
		}
		if final := liveOut[strings.LastIndex(liveOut, "events = "):]; final != offOut {
			t.Fatalf("%s: live and offline final snapshots differ:\n--- live ---\n%s\n--- offline ---\n%s", path, final, offOut)
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

// TestTracecapIngestFailureModes maps every way an ingest can end to
// tracecap's exit code and the start of its stderr. No row may print a
// Go panic trace.
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
	// A v1 trace has no frames, so a live ingest cannot tell its torn
	// tail from its end: tracecap refuses it, naming v2, while tracereplay
	// still reads the file (checked below).
	v1 := filepath.Join("internal", "trace", "testdata", "vdiff-16.mtrc")
	v1Data, err := os.ReadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	// A directory as stdin fails its first read.
	dirStdin, err := os.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dirStdin.Close() }()
	bin := cliBin(t, "tracecap")

	for _, tc := range []struct {
		name     string
		args     []string
		stdin    io.Reader
		code     int
		prefix   string // stderr starts with this
		contains string // and names this
	}{
		{"clean stream exits 0", []string{"-stdin"}, bytes.NewReader(data), 0, "tracecap: ingested 9600 events", ""},
		{"usage", []string{"-listen", "unix:/tmp/x.sock", "-stdin"}, nil, 2, "tracecap: -listen and -stdin are mutually exclusive", ""},
		{"usage: capture flag", []string{"-stdin", "-out", filepath.Join(dir, "x.mtrc")}, nil, 2, "tracecap: ingest mode takes no capture flag -out", ""},
		{"usage: the store flag is gone", []string{"-stdin", "-store", dir}, nil, 2, "flag provided but not defined: -store", ""},
		{"unreadable stdin exits 1", []string{"-stdin"}, dirStdin, 1, "tracecap: trace: reading header: ", "is a directory"},
		{"torn stream exits 3", []string{"-stdin"}, bytes.NewReader(data[:len(data)-50]), 3, "tracecap: trace: corrupt or truncated stream: ", "torn"},
		{"corrupt stream exits 3", []string{"-stdin"}, bytes.NewReader(corrupt), 3, "tracecap: trace: corrupt or truncated stream: ", "frame CRC"},
		{"v1 stream exits 3", []string{"-stdin"}, bytes.NewReader(v1Data), 3, "tracecap: trace: corrupt or truncated stream: ", "v2"},
		{"injected ingest fault exits 1", []string{"-stdin", "-faults", "seed=1;ingest.frame:count=1"}, bytes.NewReader(data), 1, "tracecap: frame delivery: injected fault at ingest.frame", ""},
		{"injected ingest panic exits 1", []string{"-stdin", "-faults", "seed=1;ingest.frame:count=1:panic"}, bytes.NewReader(data), 1, "tracecap: panic: injected fault at ingest.frame", ""},
		{"sink panic exits 1", []string{"-stdin", "-faults", "seed=1;engine.sink.emit:count=1:panic"}, bytes.NewReader(data), 1, "tracecap: frame delivery: engine: sink panicked: panic:", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runCLIStdin(t, tc.stdin, bin, tc.args...)
			if code != tc.code || !strings.HasPrefix(stderr, tc.prefix) || !strings.Contains(stderr, tc.contains) {
				t.Fatalf("exit %d stderr %q, want %d starting %q naming %q", code, stderr, tc.code, tc.prefix, tc.contains)
			}
			if strings.Contains(stderr, "goroutine ") {
				t.Fatalf("stderr carries a Go panic trace: %q", stderr)
			}
		})
	}

	if _, stderr, code := runCLI(t, nil, cliBin(t, "tracereplay"), "-in", v1); code != 0 {
		t.Fatalf("tracereplay -in %s: exit %d stderr %q, want 0", v1, code, stderr)
	}
}
