package memotable_test

// Integration tests for the sharded fleet layer: the -shards
// coordinator, the -worker entry point and its exit-code contract, and
// the provenance verification that gates every merge. The soak test
// drives fleet.Run directly so it can force-kill one worker mid-run and
// tamper with another's output — the two failure modes the supervision
// and provenance layers exist to contain.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"memotable"
	"memotable/internal/fleet"
)

var hexRoot = regexp.MustCompile(`^[0-9a-f]{64}$`)

// provenanceBlock is the trailing line `memosim -shards -json` appends
// below the result array.
type provenanceBlock struct {
	Provenance struct {
		Root   string `json:"root"`
		Shards []struct {
			Shard       int      `json:"shard"`
			Experiments []string `json:"experiments"`
			Root        string   `json:"root"`
			Verified    bool     `json:"verified"`
			Degraded    bool     `json:"degraded"`
			Attempts    int      `json:"attempts"`
			Error       string   `json:"error"`
		} `json:"shards"`
	} `json:"provenance"`
}

// splitProvenance separates a fleet run's stdout into the result array
// and its decoded provenance line.
func splitProvenance(t *testing.T, out string) (string, provenanceBlock) {
	t.Helper()
	trimmed := strings.TrimSuffix(out, "\n")
	i := strings.LastIndexByte(trimmed, '\n')
	if i < 0 {
		t.Fatalf("fleet output has no provenance line:\n%s", out)
	}
	body, line := out[:i+1], trimmed[i+1:]
	var p provenanceBlock
	if err := json.Unmarshal([]byte(line), &p); err != nil {
		t.Fatalf("provenance line does not decode: %v\n%s", err, line)
	}
	return body, p
}

// TestFleetMatchesSingleProcess pins the coordinator's headline
// guarantee: a clean 4-shard -json run produces, above the provenance
// line, the exact bytes of the single-process run, and every shard
// verifies.
func TestFleetMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and executes command binaries")
	}
	bin := cliBin(t, "memosim")
	sel := "table1,table5,figure2,figure4,table8,table9"

	single, stderr, code := runCLI(t, nil, bin, "-scale", "tiny", "-run", sel, "-json")
	if code != 0 {
		t.Fatalf("single-process run exited %d: %s", code, stderr)
	}
	fleetOut, stderr, code := runCLI(t, nil, bin,
		"-scale", "tiny", "-run", sel, "-json", "-shards", "4")
	if code != 0 {
		t.Fatalf("fleet run exited %d: %s", code, stderr)
	}

	body, p := splitProvenance(t, fleetOut)
	if body != single {
		t.Fatalf("fleet body differs from single-process output\n--- fleet ---\n%s\n--- single ---\n%s", body, single)
	}
	if !hexRoot.MatchString(p.Provenance.Root) {
		t.Fatalf("combined root %q is not 64 hex chars", p.Provenance.Root)
	}
	if len(p.Provenance.Shards) != 4 {
		t.Fatalf("provenance lists %d shards, want 4", len(p.Provenance.Shards))
	}
	names := 0
	for _, sp := range p.Provenance.Shards {
		if !sp.Verified || sp.Degraded || !hexRoot.MatchString(sp.Root) {
			t.Fatalf("shard %d not cleanly verified: %+v", sp.Shard, sp)
		}
		if sp.Attempts != 1 {
			t.Fatalf("clean shard %d took %d attempts", sp.Shard, sp.Attempts)
		}
		names += len(sp.Experiments)
	}
	if names != 6 {
		t.Fatalf("shards cover %d experiments, want 6", names)
	}

	// Text mode reports the per-shard roots and the combined root.
	text, stderr, code := runCLI(t, nil, bin,
		"-scale", "tiny", "-run", "table1,table5", "-shards", "2")
	if code != 0 {
		t.Fatalf("fleet text run exited %d: %s", code, stderr)
	}
	if !strings.Contains(text, "(table1)") || !strings.Contains(text, "(table5)") {
		t.Fatalf("fleet text output missing experiment renderings:\n%s", text)
	}
	if !strings.Contains(text, "fleet: combined root ") ||
		!strings.Contains(text, "fleet: shard 0: verified root ") {
		t.Fatalf("fleet text output missing verification summary:\n%s", text)
	}
}

// TestWorkerExitCodes pins the worker side of the supervision contract.
func TestWorkerExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and executes command binaries")
	}
	bin := cliBin(t, "memosim")

	t.Run("clean manifest", func(t *testing.T) {
		stdout, stderr, code := runCLI(t, nil, bin,
			"-worker", "-shard", "0/2", "-scale", "tiny", "-run", "table1,figure4")
		if code != 0 {
			t.Fatalf("clean worker exited %d: %s", code, stderr)
		}
		m, err := fleet.DecodeManifest([]byte(stdout))
		if err != nil {
			t.Fatalf("worker stdout is not a manifest: %v", err)
		}
		if err := fleet.Verify(m, 0, 2, "tiny", []string{"table1", "figure4"}); err != nil {
			t.Fatalf("clean worker manifest fails verification: %v", err)
		}
		if m.Degraded {
			t.Fatal("clean worker marked its manifest degraded")
		}
		if len(m.Traces) == 0 {
			t.Fatal("worker manifest carries no trace fingerprints")
		}
	})

	t.Run("degraded manifest exits 3", func(t *testing.T) {
		// A guaranteed sink panic degrades one cell; the worker must
		// still emit its manifest and signal the degradation by exit code.
		stdout, stderr, code := runCLI(t, nil, bin,
			"-worker", "-shard", "0/1", "-scale", "tiny", "-run", "table5",
			"-faults", "seed=1;engine.sink.emit:count=1:panic")
		if code != 3 {
			t.Fatalf("degraded worker exited %d, want 3 (stderr: %s)", code, stderr)
		}
		m, err := fleet.DecodeManifest([]byte(stdout))
		if err != nil {
			t.Fatalf("degraded worker stdout is not a manifest: %v", err)
		}
		if !m.Degraded {
			t.Fatal("faulted worker did not mark its manifest degraded")
		}
	})

	t.Run("usage errors exit 2", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			args []string
		}{
			{"no selection", []string{"-worker", "-shard", "0/2", "-scale", "tiny"}},
			{"bad shard spec", []string{"-worker", "-shard", "nope", "-scale", "tiny", "-run", "table1"}},
			{"shard out of range", []string{"-worker", "-shard", "5/2", "-scale", "tiny", "-run", "table1"}},
		} {
			stdout, stderr, code := runCLI(t, nil, bin, tc.args...)
			if code != 2 {
				t.Fatalf("%s: exited %d, want 2 (stderr: %s)", tc.name, code, stderr)
			}
			if stdout != "" {
				t.Fatalf("%s: emitted output %q on a usage error", tc.name, stdout)
			}
		}
	})
}

// TestFleetSoak is the supervision-and-provenance soak: one shard's
// worker is force-killed on its first attempt (must recover on a fresh
// process), another's output is bit-flipped on every attempt (must be
// rejected with ErrProvenance and degrade only its own cells), and the
// merged output's clean cells must still be byte-identical to a
// single-process run.
func TestFleetSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and executes command binaries")
	}
	bin := cliBin(t, "memosim")
	names := []string{"table1", "table5", "figure2", "figure4", "table8", "table9"}

	var killOnce sync.Once
	cfg := memotable.FleetConfig{
		Exe:       bin,
		Shards:    3,
		Scale:     memotable.Tiny,
		Names:     names,
		Timeout:   2 * time.Minute,
		Retries:   2,
		RetryBase: time.Millisecond,
		SpawnHook: func(shard, attempt int, proc *os.Process) {
			if shard == 1 && attempt == 1 {
				killOnce.Do(func() { _ = proc.Kill() })
			}
		},
		Transform: func(shard, attempt int, out []byte) []byte {
			// Flip one byte of a carried result document. The docs ride
			// inside JSON string fields, so their quotes are escaped in
			// the manifest bytes.
			if shard == 2 {
				return bytes.Replace(out, []byte(`\"kind\"`), []byte(`\"kund\"`), 1)
			}
			return out
		},
	}
	rep, err := memotable.RunFleet(context.Background(), cfg)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}

	if rep.Shards[0].Err != nil || rep.Shards[0].Attempts != 1 {
		t.Fatalf("untouched shard 0: attempts=%d err=%v", rep.Shards[0].Attempts, rep.Shards[0].Err)
	}
	if rep.Shards[1].Err != nil || rep.Shards[1].Manifest == nil {
		t.Fatalf("killed shard 1 did not recover: attempts=%d err=%v", rep.Shards[1].Attempts, rep.Shards[1].Err)
	}
	if rep.Shards[1].Attempts < 2 {
		t.Fatalf("killed shard 1 recovered in %d attempts, want a retry", rep.Shards[1].Attempts)
	}
	if !errors.Is(rep.Shards[2].Err, memotable.ErrProvenance) {
		t.Fatalf("tampered shard 2 error = %v, want ErrProvenance", rep.Shards[2].Err)
	}
	if rep.Shards[2].Attempts != 3 {
		t.Fatalf("tampered shard 2 took %d attempts, want the full retry budget of 3", rep.Shards[2].Attempts)
	}
	if !rep.Degraded() || !hexRoot.MatchString(rep.Root) {
		t.Fatalf("degraded=%v root=%q", rep.Degraded(), rep.Root)
	}

	// The merged body: cells owned by shards 0 and 1 byte-identical to
	// the single-process render, shard 2's cells degraded with the
	// provenance failure attributed to the fleet stage.
	eng := memotable.NewEngine(2)
	defer eng.Close()
	results, _, err := memotable.RunContext(context.Background(), eng, memotable.Tiny, names...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := memotable.RenderJSONArray(results)
	if err != nil {
		t.Fatal(err)
	}
	body, prov, err := rep.MergedJSON()
	if err != nil {
		t.Fatalf("MergedJSON: %v", err)
	}
	var gotCells, wantCells []json.RawMessage
	if err := json.Unmarshal(body, &gotCells); err != nil {
		t.Fatalf("merged body does not decode: %v", err)
	}
	if err := json.Unmarshal(want, &wantCells); err != nil {
		t.Fatal(err)
	}
	if len(gotCells) != len(names) || len(wantCells) != len(names) {
		t.Fatalf("merged %d cells, reference %d, want %d", len(gotCells), len(wantCells), len(names))
	}
	for i := range names {
		if i%3 == 2 { // shard 2's cells
			var deg struct {
				Errors []struct {
					Stage string `json:"stage"`
				} `json:"errors"`
			}
			if err := json.Unmarshal(gotCells[i], &deg); err != nil || len(deg.Errors) == 0 {
				t.Fatalf("cell %s: want degraded result with errors, got %s", names[i], gotCells[i])
			}
			if deg.Errors[0].Stage != "fleet" {
				t.Fatalf("cell %s: degraded at stage %q, want fleet", names[i], deg.Errors[0].Stage)
			}
			continue
		}
		if !bytes.Equal(gotCells[i], wantCells[i]) {
			t.Fatalf("clean cell %s differs from single-process render\n--- fleet ---\n%s\n--- single ---\n%s",
				names[i], gotCells[i], wantCells[i])
		}
	}

	if prov == nil || prov.Root != rep.Root {
		t.Fatal("provenance block root disagrees with the report")
	}
	if prov.Shards[2].Verified || prov.Shards[2].Error == "" {
		t.Fatalf("tampered shard's provenance entry: %+v", prov.Shards[2])
	}
}
