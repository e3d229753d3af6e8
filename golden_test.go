package memotable_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"memotable"
)

var updateGolden = flag.Bool("update", false, "rewrite experiment goldens from the serial reference path")

// TestExperimentGoldens pins every table and figure of the evaluation
// byte for byte. The goldens are written (under -update) by the serial
// reference engine; the routine run produces each experiment on a
// multi-worker engine with a shared trace cache — so a passing run proves
// the parallel engine's output is byte-identical to the serial path.
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
// exactly-once contract across the full matrix: captures == replays,
// no recaptures.
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
			if eng.Stats().Recaptures != 0 {
				t.Errorf("fused matrix: %d recaptures", eng.Stats().Recaptures)
			}
		})
	}
}

// TestExperimentGoldensWithSpillTier reruns the golden matrix on an
// 8-worker engine whose memory budget is too small for any capture, so
// every workload trace overflows into a scratch store entry on disk and
// every cell replays through it. Output must stay byte-identical to the serial
// goldens: the disk tier is invisible to the experiments.
func TestExperimentGoldensWithSpillTier(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are written by the serial reference engine")
	}
	eng := memotable.NewEngine(8)
	eng.SetCacheLimit(1)
	eng.SetTraceDir(t.TempDir())
	defer eng.Close()
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
				t.Errorf("spill-tier output diverged from the serial golden\n--- got ---\n%s\n--- want ---\n%s",
					out, want)
			}
		})
	}
	if eng.Stats().SpilledTraces == 0 {
		t.Error("no capture spilled: the spill tier went unexercised")
	}
	if eng.Stats().CachedTraces != 0 {
		t.Errorf("%d captures in the memory tier despite a 1-byte budget", eng.Stats().CachedTraces)
	}
}

// TestWarmPassHoldsNothing primes a tiny store, then runs one full pass
// over it on a fresh engine. Every trace must come from the store and
// replay from its entry file: nothing captured, no byte charged to the
// cache budget, no memory-tier entry, and — each key replayed once — no
// decoded blocks. The output must match the cold pass byte for byte.
func TestWarmPassHoldsNothing(t *testing.T) {
	dir := t.TempDir()
	render := func(eng *memotable.Engine) string {
		st, err := memotable.OpenTraceStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetStore(st)
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
	cold := memotable.NewEngine(2)
	defer cold.Close()
	want := render(cold)

	warm := memotable.NewEngine(2)
	defer warm.Close()
	if got := render(warm); got != want {
		t.Fatal("warm pass output diverged from the cold pass")
	}
	st := warm.Stats()
	if st.StoreHits == 0 || st.Captures != 0 || st.BudgetUsed != 0 || st.DecodedEntries != 0 {
		t.Fatalf("warm pass: %d store hits, %d captures, %d budget bytes used, %d decoded entries; want hits and 0, 0, 0",
			st.StoreHits, st.Captures, st.BudgetUsed, st.DecodedEntries)
	}
	for _, ts := range warm.TierStats() {
		if ts.Name == "memory" && (ts.Entries != 0 || ts.Bytes != 0) {
			t.Fatalf("warm pass memory tier %+v, want empty", ts)
		}
	}
}
