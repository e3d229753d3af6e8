package experiments

import (
	"strings"
	"sync"
	"testing"

	"memotable/internal/engine"
	"memotable/internal/report"
)

// registryNames is the full expected experiment index; keep sorted.
var registryNames = []string{
	"figure2", "figure3", "figure4",
	"recip-comparison", "reuse-comparison", "sqrt-extension",
	"table1", "table10", "table11", "table12", "table13",
	"table5", "table6", "table7", "table8", "table9",
}

func TestRegistryNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != len(registryNames) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(names), len(registryNames), names)
	}
	for i, n := range names {
		if n != registryNames[i] {
			t.Fatalf("names[%d] = %q, want %q (must be sorted)", i, n, registryNames[i])
		}
	}
	for i, e := range All() {
		if e.Name != registryNames[i] {
			t.Fatalf("All()[%d].Name = %q, want %q", i, e.Name, registryNames[i])
		}
		if e.Title == "" || len(e.Ops) == 0 {
			t.Errorf("%s: missing title or ops", e.Name)
		}
	}
}

func TestLookupReportsEveryUnknownName(t *testing.T) {
	_, err := Lookup("table5", "bogus1", "figure4", "bogus2")
	if err == nil {
		t.Fatal("unknown names must error")
	}
	for _, want := range []string{`"bogus1"`, `"bogus2"`, "table9"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %s", err, want)
		}
	}
	if strings.Contains(err.Error(), `"table5"`) {
		t.Errorf("error %q names a known experiment as unknown", err)
	}
	exps, err := Lookup()
	if err != nil || len(exps) != len(registryNames) {
		t.Fatalf("empty lookup must select the whole registry: %v, %d", err, len(exps))
	}
}

func TestRunUnknownNameRunsNothing(t *testing.T) {
	eng := engine.New(2)
	if _, err := Run(eng, Tiny, "table5", "bogus"); err == nil {
		t.Fatal("want error")
	}
	if eng.Stats().Captures != 0 {
		t.Fatalf("a failed lookup must not run anything: %d captures", eng.Stats().Captures)
	}
}

// TestRunFusesWholeMatrix is the planner's core guarantee: the full
// registry in one Run captures each demanded workload exactly once and
// replays it exactly once, even though many experiments demand the same
// applications.
func TestRunFusesWholeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	eng := engine.New(4)
	results, err := Run(eng, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(registryNames) {
		t.Fatalf("%d results, want %d", len(results), len(registryNames))
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("results[%d] is nil", i)
		}
		if r.Name != registryNames[i] {
			t.Errorf("results[%d].Name = %q, want %q", i, r.Name, registryNames[i])
		}
		if report.Text(r) == "" {
			t.Errorf("%s rendered empty", r.Name)
		}
	}
	if eng.Stats().Captures == 0 {
		t.Fatal("matrix ran no captures")
	}
	if eng.Stats().Captures != eng.Stats().Replays {
		t.Errorf("captures %d != replays %d: fusion failed (a workload was replayed per-sink or re-captured)",
			eng.Stats().Captures, eng.Stats().Replays)
	}
	if eng.Stats().Recaptures != 0 {
		t.Errorf("%d recaptures in a fused pass", eng.Stats().Recaptures)
	}

	// A second identical Run replays from cache: no further captures.
	before := eng.Stats().Captures
	if _, err := Run(eng, Tiny, "table7", "table9"); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Captures != before {
		t.Errorf("cached selection re-captured: %d -> %d", before, eng.Stats().Captures)
	}
}

// TestRunConcurrentFullRegistry hammers concurrent full-registry runs on
// one shared engine under -race. Concurrent plan phases allocate images
// while other runs capture, so outputs are only shape-checked here;
// determinism within one Run is pinned by the root golden tests.
func TestRunConcurrentFullRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	eng := engine.New(4)
	const runs = 3
	var wg sync.WaitGroup
	errs := make([]error, runs)
	outs := make([][]*report.Result, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = Run(eng, Tiny)
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if len(outs[i]) != len(registryNames) {
			t.Fatalf("run %d: %d results", i, len(outs[i]))
		}
		for j, r := range outs[i] {
			if r == nil || r.Name != registryNames[j] {
				t.Fatalf("run %d result %d malformed", i, j)
			}
		}
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	mustPanic := func(name string, e Experiment) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(e)
	}
	mustPanic("empty name", Experiment{Plan: func(*Context) Plan { return Plan{} }})
	mustPanic("nil plan", Experiment{Name: "x"})
	mustPanic("duplicate", Experiment{Name: "table5", Plan: func(*Context) Plan { return Plan{} }})
}
