package faults

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// activate installs a plan for the duration of the test.
func activate(t *testing.T, p *Plan) {
	t.Helper()
	Activate(p)
	t.Cleanup(func() { Activate(nil) })
}

func TestInjectWithoutPlanIsNil(t *testing.T) {
	Activate(nil)
	if Enabled() {
		t.Fatal("Enabled with no plan")
	}
	if err := Inject(StoreWrite); err != nil {
		t.Fatalf("injection with no plan: %v", err)
	}
}

func TestErrorModeFiresAndWraps(t *testing.T) {
	p, err := New(1, Rule{Point: StoreWrite})
	if err != nil {
		t.Fatal(err)
	}
	activate(t, p)
	got := Inject(StoreWrite)
	if got == nil {
		t.Fatal("p=1 rule did not fire")
	}
	if !errors.Is(got, ErrInjected) {
		t.Fatalf("injected error %v is not ErrInjected", got)
	}
	var f *Fault
	if !errors.As(got, &f) || f.Point != StoreWrite {
		t.Fatalf("injected error %v carries no *Fault for %s", got, StoreWrite)
	}
	if err := Inject(StoreRead); err != nil {
		t.Fatalf("unruled point fired: %v", err)
	}
	if p.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", p.Fired())
	}
}

func TestPanicMode(t *testing.T) {
	p, err := New(1, Rule{Point: SinkEmit, Mode: ModePanic})
	if err != nil {
		t.Fatal(err)
	}
	activate(t, p)
	defer func() {
		r := recover()
		f, ok := r.(*Fault)
		if !ok || f.Point != SinkEmit {
			t.Fatalf("recovered %v, want *Fault at %s", r, SinkEmit)
		}
	}()
	_ = Inject(SinkEmit)
	t.Fatal("panic-mode rule did not panic")
}

func TestCountAndAfter(t *testing.T) {
	p, err := New(1, Rule{Point: CaptureRun, Count: 2, After: 1})
	if err != nil {
		t.Fatal(err)
	}
	activate(t, p)
	var fired int
	for i := 0; i < 10; i++ {
		if Inject(CaptureRun) != nil {
			fired++
			if i == 0 {
				t.Error("rule fired on the first hit despite after=1")
			}
		}
	}
	if fired != 2 {
		t.Fatalf("count=2 rule fired %d times", fired)
	}
}

func TestProbabilityIsDeterministicAndRoughlyCalibrated(t *testing.T) {
	run := func(seed uint64) []bool {
		p, err := New(seed, Rule{Point: StoreWrite, Prob: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		pattern := make([]bool, 10000)
		for i := range pattern {
			pattern[i] = p.inject(StoreWrite) != nil
		}
		return pattern
	}
	a, b := run(42), run(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs between identical seeds", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired < 800 || fired > 1200 {
		t.Errorf("p=0.1 fired %d/10000 times, want ~1000", fired)
	}
	c := run(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 42 and 43 produced identical patterns")
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("seed=7; store.write:p=0.25:count=3 ;engine.sink.emit:after=2:panic")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 {
		t.Errorf("seed = %d, want 7", p.Seed)
	}
	w := p.rules[StoreWrite]
	if len(w) != 1 || w[0].Prob != 0.25 || w[0].Count != 3 || w[0].Mode != ModeError {
		t.Errorf("store.write rule parsed as %+v", w)
	}
	s := p.rules[SinkEmit]
	if len(s) != 1 || s[0].After != 2 || s[0].Mode != ModePanic || s[0].Prob != 1 {
		t.Errorf("sink.emit rule parsed as %+v", s)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"nosuch.point",
		"store.write:p=2",
		"store.write:p=x",
		"store.write:count=-1",
		"store.write:frob=1",
		"seed=nope",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestFromEnv(t *testing.T) {
	t.Cleanup(func() { Activate(nil) })
	t.Setenv("FAULTS", "")
	if spec, err := Install(""); err != nil || spec != "" || Enabled() {
		t.Fatalf("empty FAULTS: spec=%q err=%v enabled=%v", spec, err, Enabled())
	}
	t.Setenv("FAULTS", "store.read:count=1")
	spec, err := Install("")
	if err != nil || spec != "store.read:count=1" || !Enabled() {
		t.Fatalf("Install from FAULTS: spec=%q err=%v enabled=%v", spec, err, Enabled())
	}
	// The flag spec wins over the environment.
	Activate(nil)
	if spec, err := Install("store.write:count=1"); err != nil || spec != "store.write:count=1" {
		t.Fatalf("flag spec: spec=%q err=%v", spec, err)
	}
	Activate(nil)
	t.Setenv("FAULTS", "bogus:")
	if _, err := Install(""); err == nil || Enabled() {
		t.Fatalf("bad FAULTS spec accepted (err=%v, enabled=%v)", err, Enabled())
	}
	t.Setenv("FAULTS", "")
	if _, err := Install("bogus:"); err == nil || Enabled() {
		t.Fatalf("bad flag spec accepted (err=%v, enabled=%v)", err, Enabled())
	}
}

func TestCountIsRaceSafeUnderConcurrency(t *testing.T) {
	p, err := New(1, Rule{Point: StoreWrite, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	activate(t, p)
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < 1000; i++ {
				if Inject(StoreWrite) != nil {
					local++
				}
			}
			mu.Lock()
			fired += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if fired != 5 {
		t.Fatalf("count=5 rule fired %d times across goroutines", fired)
	}
}

func TestPointsCatalogIsSortedAndNamed(t *testing.T) {
	pts := Points()
	if len(pts) < 8 {
		t.Fatalf("catalog has %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if strings.Compare(pts[i-1], pts[i]) >= 0 {
			t.Fatalf("catalog not sorted at %q >= %q", pts[i-1], pts[i])
		}
	}
}
