package memotable_test

// os/exec table tests for the three commands: every failure mode must
// print to stderr and exit with its documented code — usage errors 2,
// I/O failures 1, corrupt traces 3 (tracereplay), and partial results 2
// (memosim -keep-going). The binaries are built once per test run from
// the checked-out tree, so these tests exercise exactly the shipped
// main packages, flag parsing included.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	cliBuildOnce sync.Once
	cliBinDir    string
	cliBuildErr  error
)

// TestMain removes the directory cliBin built the commands into once
// every test has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if cliBinDir != "" {
		_ = os.RemoveAll(cliBinDir)
	}
	os.Exit(code)
}

// cliBin builds (once) and returns the path of a command's binary.
func cliBin(t *testing.T, name string) string {
	t.Helper()
	cliBuildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "memotable-cli-*")
		if err != nil {
			cliBuildErr = err
			return
		}
		cliBinDir = dir
		for _, cmd := range []string{"memosim", "tracecap", "tracereplay"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd).CombinedOutput()
			if err != nil {
				cliBuildErr = err
				t.Logf("go build ./cmd/%s: %s", cmd, out)
				return
			}
		}
	})
	if cliBuildErr != nil {
		t.Fatalf("building commands: %v", cliBuildErr)
	}
	return filepath.Join(cliBinDir, name)
}

// runCLI executes a built command and returns stdout, stderr and the
// exit code (0 when the process succeeded).
func runCLI(t *testing.T, env []string, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
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

// captureTrace writes a small kernel trace with tracecap and returns
// its path.
func captureTrace(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "trace.mtrc")
	stdout, stderr, code := runCLI(t, nil, cliBin(t, "tracecap"),
		"-out", path, "-kernel", "TRFD")
	if code != 0 {
		t.Fatalf("tracecap exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "captured ") {
		t.Fatalf("tracecap stdout = %q, want capture summary", stdout)
	}
	return path
}

func TestTracecapCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and executes command binaries")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "t.mtrc")
	compressed := filepath.Join(dir, "compressed.mtrc")
	rejected := filepath.Join(dir, "rejected.mtrc")
	tests := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string // substring of stderr when non-zero
	}{
		{"missing out", []string{"-kernel", "TRFD"}, 2, "need -out"},
		{"app and kernel", []string{"-out", out, "-app", "vspatial", "-kernel", "TRFD"}, 2, "exactly one"},
		{"unknown kernel", []string{"-out", out, "-kernel", "nope"}, 2, "unknown kernel"},
		{"unknown app", []string{"-out", out, "-app", "nope"}, 2, "unknown"},
		{"unknown input", []string{"-out", out, "-app", "vspatial", "-input", "nope"}, 2, "unknown input"},
		{"zero maxdim", []string{"-out", rejected, "-app", "vspatial", "-maxdim", "0"}, 2, "-maxdim must be positive"},
		// A flag of the other mode is refused even at its default value.
		{"ingest flag in capture mode", []string{"-out", rejected, "-kernel", "TRFD", "-snapshot", "0"}, 2, "no ingest flag -snapshot"},
		{"capture flag in ingest mode", []string{"-stdin", "-maxdim", "128"}, 2, "no capture flag -maxdim"},
		{"unwritable out", []string{"-out", filepath.Join(dir, "no-such-dir", "t.mtrc"), "-kernel", "TRFD"}, 1, "no-such-dir"},
		{"ok", []string{"-out", out, "-kernel", "TRFD"}, 0, ""},
		{"compress", []string{"-out", compressed, "-kernel", "TRFD", "-compress"}, 0, ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, nil, cliBin(t, "tracecap"), tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr)
			}
			if tc.wantCode != 0 && !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr = %q, want substring %q", stderr, tc.wantErr)
			}
			if strings.Contains(stderr, "panic:") {
				t.Fatalf("stderr = %q, want a usage error, not a panic", stderr)
			}
		})
	}
	if _, err := os.Stat(rejected); !os.IsNotExist(err) {
		t.Fatalf("rejected capture left an output file (stat: %v)", err)
	}

	// The compressed trace replays to the same report as the plain one.
	plain, stderr, code := runCLI(t, nil, cliBin(t, "tracereplay"), "-in", out)
	if code != 0 {
		t.Fatalf("tracereplay on the plain trace exited %d: %s", code, stderr)
	}
	packed, stderr, code := runCLI(t, nil, cliBin(t, "tracereplay"), "-in", compressed)
	if code != 0 {
		t.Fatalf("tracereplay on the compressed trace exited %d: %s", code, stderr)
	}
	if packed != plain || !strings.Contains(plain, "hit ratio") {
		t.Fatalf("compressed trace report %q, plain %q", packed, plain)
	}
}

func TestTracereplayCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and executes command binaries")
	}
	dir := t.TempDir()

	good := captureTrace(t, dir)

	garbage := filepath.Join(dir, "garbage.mtrc")
	if err := os.WriteFile(garbage, []byte("this is not a trace file at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A truncated v2 file: the header survives but the last frame is
	// torn, which the CRC framing must reject.
	truncated := filepath.Join(dir, "truncated.mtrc")
	buf, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"missing in", nil, 2, "need -in"},
		{"bad policy", []string{"-in", good, "-policy", "nope"}, 2, "unknown policy"},
		{"entries not a power of two", []string{"-in", good, "-entries", "30"}, 2, "not a power of two"},
		{"negative entries", []string{"-in", good, "-entries", "-4"}, 2, "negative entry count"},
		{"ways not dividing entries", []string{"-in", good, "-ways", "3"}, 2, "not divisible by ways"},
		{"missing file", []string{"-in", filepath.Join(dir, "absent.mtrc")}, 1, "absent.mtrc"},
		{"garbage input", []string{"-in", garbage}, 3, "corrupt or truncated"},
		{"truncated input", []string{"-in", truncated}, 3, "corrupt or truncated"},
		{"ok", []string{"-in", good}, 0, ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, nil, cliBin(t, "tracereplay"), tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr)
			}
			if tc.wantCode != 0 && !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr = %q, want substring %q", stderr, tc.wantErr)
			}
			if strings.Contains(stderr, "panic:") {
				t.Fatalf("stderr = %q, want a usage error, not a panic", stderr)
			}
			if tc.wantCode == 0 && !strings.Contains(stdout, "hit ratio") {
				t.Fatalf("stdout = %q, want hit ratio report", stdout)
			}
		})
	}
}

func TestMemosimCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and executes command binaries")
	}
	bin := cliBin(t, "memosim")
	base := []string{"-scale", "tiny", "-run", "table5"}

	t.Run("usage errors", func(t *testing.T) {
		for _, tc := range []struct {
			name    string
			args    []string
			wantErr string
		}{
			{"unknown scale", []string{"-scale", "huge"}, "unknown scale"},
			{"unknown experiment", []string{"-scale", "tiny", "-run", "tableX"}, "unknown experiment"},
			{"bad faults spec", append(base, "-faults", "bogus.point"), "unknown injection point"},
		} {
			stdout, stderr, code := runCLI(t, nil, bin, tc.args...)
			if code != 2 {
				t.Fatalf("%s: exit code = %d, want 2 (stderr: %s)", tc.name, code, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("%s: stderr = %q, want substring %q", tc.name, stderr, tc.wantErr)
			}
			if stdout != "" {
				t.Fatalf("%s: stdout = %q, want empty", tc.name, stdout)
			}
		}
	})

	t.Run("clean run", func(t *testing.T) {
		stdout, stderr, code := runCLI(t, nil, bin, base...)
		if code != 0 {
			t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr)
		}
		if !strings.Contains(stdout, "(table5)") || strings.Contains(stdout, "errors:") {
			t.Fatalf("stdout = %q, want table5 output without errors section", stdout)
		}
	})

	// A panicking sink fails exactly one workload cell. Without
	// -keep-going that is a hard failure (exit 1, no results); with it,
	// partial results print with an errors section and exit 2.
	faultArgs := append(base, "-faults", "seed=1;engine.sink.emit:count=1:panic")

	t.Run("faulted aborts", func(t *testing.T) {
		stdout, stderr, code := runCLI(t, nil, bin, faultArgs...)
		if code != 1 {
			t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
		}
		if !strings.Contains(stderr, "sink panicked") {
			t.Fatalf("stderr = %q, want sink panic report", stderr)
		}
		if strings.Contains(stdout, "(table5)") {
			t.Fatalf("stdout = %q, want no results on hard failure", stdout)
		}
	})

	t.Run("faulted keep-going text", func(t *testing.T) {
		stdout, stderr, code := runCLI(t, nil, bin, append(faultArgs, "-keep-going")...)
		if code != 2 {
			t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr)
		}
		if !strings.Contains(stdout, "errors:") || !strings.Contains(stdout, "[sink]") {
			t.Fatalf("stdout = %q, want rendered errors section", stdout)
		}
		if !strings.Contains(stderr, "sink panicked") {
			t.Fatalf("stderr = %q, want sink panic report", stderr)
		}
	})

	t.Run("faulted keep-going json", func(t *testing.T) {
		stdout, stderr, code := runCLI(t, nil, bin, append(faultArgs, "-keep-going", "-json")...)
		if code != 2 {
			t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr)
		}
		if !strings.Contains(stdout, `"errors"`) || !strings.Contains(stdout, `"stage": "sink"`) {
			t.Fatalf("stdout = %q, want errors array in JSON", stdout)
		}
	})

	// The FAULTS environment variable arms injection too (the flag
	// overrides it); an empty -faults flag leaves the env spec active.
	t.Run("faults via env", func(t *testing.T) {
		_, stderr, code := runCLI(t, []string{"FAULTS=seed=1;engine.sink.emit:count=1:panic"}, bin, base...)
		if code != 1 {
			t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
		}
	})
}
