package experiments

import (
	"context"
	"slices"
	"sort"
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
// registry in one Run runs each demanded workload exactly once, even
// though many experiments demand the same applications.
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
		t.Errorf("captures %d != replays %d: a workload run failed", eng.Stats().Captures, eng.Stats().Replays)
	}
	if want := len(registryWorkloadKeys(t)); eng.Stats().Captures != uint64(want) {
		t.Errorf("%d workload runs for %d distinct workloads: fusion failed", eng.Stats().Captures, want)
	}

	// A later Run on the same engine runs its own selection's workloads
	// once each again.
	before := eng.Stats().Captures
	if _, err := Run(eng, Tiny, "table7", "table9"); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Stats().Captures-before, len(registryWorkloadKeys(t, "table7", "table9")); got != uint64(want) {
		t.Errorf("second selection ran %d workloads, want its %d distinct ones", got, want)
	}
}

// registryWorkloadKeys is the sorted set of distinct workload keys the
// named experiments (all of them when names is empty) demand at tiny
// scale.
func registryWorkloadKeys(t *testing.T, names ...string) []string {
	t.Helper()
	exps, err := Lookup(names...)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, ex := range exps {
		ctx := &Context{Eng: engine.New(1), Scale: Tiny}
		for _, keys := range demandKeys(t, ctx, ex.Plan(ctx)) {
			for _, k := range keys {
				seen[k] = true
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestTraceFingerprintsListRegistryWorkloads: after a fault-free tiny
// pass of the whole registry, the engine's trace fingerprints — what a
// fleet worker's provenance chain binds its run to — are exactly the
// registry's distinct workload keys.
func TestTraceFingerprintsListRegistryWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	eng := engine.New(2)
	_, rep, err := RunContext(context.Background(), eng, Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("fault-free pass failed cells: %v", rep.Errors)
	}
	got, want := eng.TraceFingerprints(), registryWorkloadKeys(t)
	if !slices.Equal(got, want) {
		t.Fatalf("fingerprints (%d) differ from the registry's workload keys (%d):\ngot  %v\nwant %v",
			len(got), len(want), got, want)
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
