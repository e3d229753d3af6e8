package memotable_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"memotable"
)

var updateGolden = flag.Bool("update", false, "rewrite experiment goldens from the serial reference path")

// TestExperimentGoldens pins every table and figure of the evaluation
// byte for byte. The goldens are written (under -update) by the serial
// reference engine; the routine run produces each experiment on one
// shared multi-worker engine — so a passing run proves the parallel
// engine's output is byte-identical to the serial path.
func TestExperimentGoldens(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		serial := memotable.NewEngine(1)
		defer func() { _ = serial.Close() }()
		for _, name := range memotable.Experiments() {
			out, err := memotable.RunExperimentWith(serial, name, memotable.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", name+".golden")
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	eng := memotable.NewEngine(8)
	defer func() { _ = eng.Close() }()
	for _, name := range memotable.Experiments() {
		name := name
		t.Run(name, func(t *testing.T) {
			out, err := memotable.RunExperimentWith(eng, name, memotable.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `go test -run TestExperimentGoldens -update .`): %v", err)
			}
			if out != string(want) {
				t.Errorf("parallel-engine output diverged from the serial golden\n--- got ---\n%s\n--- want ---\n%s",
					out, want)
			}
		})
	}
}

// TestFusedMatrixGoldens runs the whole registry through one fused
// memotable.Run pass — at 1 worker and at 8 — and holds every result's
// text to the same per-experiment goldens. Passing proves the
// cross-experiment planner changes scheduling only, never results, at
// any worker count. The fresh engine also witnesses the planner's
// exactly-once contract across the full matrix: every workload run
// started completes (captures == replays).
func TestFusedMatrixGoldens(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are written by the serial reference engine")
	}
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := memotable.NewEngine(workers)
			defer func() { _ = eng.Close() }()
			results, err := memotable.Run(eng, memotable.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			names := memotable.Experiments()
			if len(results) != len(names) {
				t.Fatalf("%d results for %d experiments", len(results), len(names))
			}
			for i, r := range results {
				if r.Name != names[i] {
					t.Fatalf("results[%d].Name = %q, want %q", i, r.Name, names[i])
				}
				want, err := os.ReadFile(filepath.Join("testdata", "golden", r.Name+".golden"))
				if err != nil {
					t.Fatalf("missing golden (run `go test -run TestExperimentGoldens -update .`): %v", err)
				}
				if got := memotable.RenderText(r); got != string(want) {
					t.Errorf("%s: fused-pass output diverged from the serial golden\n--- got ---\n%s\n--- want ---\n%s",
						r.Name, got, want)
				}
			}
			if eng.Stats().Captures == 0 || eng.Stats().Captures != eng.Stats().Replays {
				t.Errorf("fused matrix: captures=%d replays=%d, want equal and nonzero",
					eng.Stats().Captures, eng.Stats().Replays)
			}
		})
	}
}

// TestExperimentGoldensWithSpillTier reruns the golden matrix on an
// 8-worker engine configured as the disk tier once was — a trace dir
// set — and holds it to the serial goldens byte for byte. The engine
// keeps no trace on disk, so the dir must stay empty and every workload
// run must complete.
func TestExperimentGoldensWithSpillTier(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are written by the serial reference engine")
	}
	dir := t.TempDir()
	eng := memotable.NewEngine(8)
	eng.SetTraceDir(dir)
	defer func() { _ = eng.Close() }()
	for _, name := range memotable.Experiments() {
		name := name
		t.Run(name, func(t *testing.T) {
			out, err := memotable.RunExperimentWith(eng, name, memotable.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
			if err != nil {
				t.Fatalf("missing golden (run `go test -run TestExperimentGoldens -update .`): %v", err)
			}
			if out != string(want) {
				t.Errorf("trace-dir engine output diverged from the serial golden\n--- got ---\n%s\n--- want ---\n%s",
					out, want)
			}
		})
	}
	if st := eng.Stats(); st.Captures == 0 || st.Captures != st.Replays || st.SpilledTraces != 0 {
		t.Errorf("captures=%d replays=%d spilled=%d, want equal and nonzero captures and replays, nothing spilled",
			st.Captures, st.Replays, st.SpilledTraces)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("the engine left %d entries in the trace dir (%v)", len(left), err)
	}
}

// TestWarmPassHoldsNothing runs one full tiny pass and then a second on
// the same, now warm, engine. Nothing of the first pass is held for the
// second: it runs every workload again, exactly as many as the first,
// and its output matches the first pass byte for byte.
func TestWarmPassHoldsNothing(t *testing.T) {
	render := func(eng *memotable.Engine) string {
		results, err := memotable.Run(eng, memotable.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, r := range results {
			out += memotable.RenderText(r)
		}
		return out
	}
	eng := memotable.NewEngine(2)
	defer func() { _ = eng.Close() }()
	cold := render(eng)
	first := eng.Stats()
	if got := render(eng); got != cold {
		t.Fatal("warm pass output diverged from the cold pass")
	}
	st := eng.Stats()
	if first.Captures == 0 || st.Captures != 2*first.Captures || st.Replays != st.Captures ||
		st.ReplayedEvents != 2*first.ReplayedEvents {
		t.Fatalf("cold pass %d captures, %d events; after the warm pass %d captures, %d replays, %d events; want both passes to run everything",
			first.Captures, first.ReplayedEvents, st.Captures, st.Replays, st.ReplayedEvents)
	}
	if st.StoreHits != 0 || st.DecodeOnceHits != 0 || st.DecodedBlockBytes != 0 {
		t.Fatalf("warm pass: %d store hits, %d decode-once hits, %d decoded block bytes; want none",
			st.StoreHits, st.DecodeOnceHits, st.DecodedBlockBytes)
	}
}

// TestQuickScaleDigest pins the whole registry at quick scale, where
// table geometry and convergence differ from tiny: the SHA-256 over
// every experiment's text in registry order, each followed by a NUL,
// must equal quick_sha256 in bench/baseline.json, the digest memobench
// holds every quick pass to.
func TestQuickScaleDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix at quick scale")
	}
	var base struct {
		QuickSHA256 string `json:"quick_sha256"`
	}
	readJSON(t, filepath.Join("bench", "baseline.json"), &base, false)
	if len(base.QuickSHA256) != 64 {
		t.Fatalf("bench/baseline.json records no quick_sha256 (%q)", base.QuickSHA256)
	}
	eng := memotable.NewEngine(0)
	defer func() { _ = eng.Close() }()
	results, err := memotable.Run(eng, memotable.Quick)
	if err != nil {
		t.Fatal(err)
	}
	texts := make(map[string]string, len(results))
	for _, r := range results {
		texts[r.Name] = memotable.RenderText(r)
	}
	h := sha256.New()
	for _, name := range memotable.Experiments() {
		if _, ok := texts[name]; !ok {
			t.Fatalf("no result for %s", name)
		}
		io.WriteString(h, texts[name])
		h.Write([]byte{0})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != base.QuickSHA256 {
		t.Errorf("quick-scale digest %s, want %s from bench/baseline.json", got, base.QuickSHA256)
	}
}
