package memotable_test

// The fault soak: the full experiment registry at 8 workers under an
// injected ~1% fault rate on the workload-run edge, plus exactly one
// panicking sink, swept over deterministic seeds. The pass must
// complete (no planning error), every faulted cell must appear exactly
// once in the PassReport, every experiment untouched by a fault must
// render byte-identically to the serial goldens, and every degraded
// experiment must carry the failed workloads it demanded. Run under
// -race this doubles as the concurrency soak for the whole hardened
// path: panic isolation, degradation and report assembly all race
// against 8 workers.
//
// Wall clock: a seed costs roughly one matrix run (see EXPERIMENTS.md);
// MEMOTABLE_SOAK_SEEDS widens the sweep in CI.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"memotable"
	"memotable/internal/faults"
)

func TestFaultSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed full-registry soak")
	}
	seeds := 2
	if s := os.Getenv("MEMOTABLE_SOAK_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad MEMOTABLE_SOAK_SEEDS %q", s)
		}
		seeds = n
	}

	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan, err := faults.Parse(fmt.Sprintf(
				"seed=%d;engine.sink.emit:count=1:panic;engine.capture.run:p=0.01", seed))
			if err != nil {
				t.Fatal(err)
			}
			faults.Activate(plan)
			defer faults.Activate(nil)

			eng := memotable.NewEngine(8)
			defer eng.Close()

			results, rep, err := memotable.RunContext(context.Background(), eng, memotable.Tiny)
			if err != nil {
				t.Fatalf("planning failed under faults: %v", err)
			}
			if rep.Canceled {
				t.Fatal("report marked canceled without cancellation")
			}

			// Exactly one panicking sink was armed, so the pass records
			// at least that cell; and no workload may appear twice.
			if len(rep.Errors) == 0 {
				t.Fatal("armed sink panic produced no cell error")
			}
			seen := make(map[string]int)
			for _, ce := range rep.Errors {
				seen[ce.Key]++
			}
			for key, n := range seen {
				if n != 1 {
					t.Errorf("faulted cell %q appears %d times in the PassReport, want exactly once", key, n)
				}
			}

			clean := 0
			for _, r := range results {
				if len(r.Errs) > 0 {
					// Degraded: every carried failure must be a cell the
					// pass actually reported.
					for _, re := range r.Errs {
						if seen[re.Workload] != 1 {
							t.Errorf("%s: degraded by %q, which the PassReport does not record", r.Name, re.Workload)
						}
					}
					continue
				}
				// Untouched: byte-identical to the serial golden.
				want, err := os.ReadFile(filepath.Join("testdata", "golden", r.Name+".golden"))
				if err != nil {
					t.Fatalf("missing golden (run `go test -run TestExperimentGoldens -update .`): %v", err)
				}
				if got := memotable.RenderText(r); got != string(want) {
					t.Errorf("%s: non-faulted cell diverged from golden under fault soak\n--- got ---\n%s\n--- want ---\n%s",
						r.Name, got, want)
				}
				clean++
			}
			if clean == 0 {
				t.Error("every experiment degraded; the soak should leave survivors to compare")
			}
			t.Logf("seed %d: %d faulted cells, %d/%d experiments clean, %d runs, %d faults fired",
				seed, len(rep.Errors), clean, len(results), eng.Stats().Captures, plan.Fired())
		})
	}
}
