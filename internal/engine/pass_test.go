package engine

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"memotable/internal/isa"
	"memotable/internal/trace"
)

// passCapture synthesizes a small distinguishable stream: n fmul events
// whose A operand carries the tag.
func passCapture(tag uint64, n int) CaptureFunc {
	return func(s trace.Sink) {
		for i := 0; i < n; i++ {
			s.Emit(trace.Event{Op: isa.OpFMul, A: tag, B: uint64(i)})
		}
	}
}

// tagsOf lists the distinct A tags in recorder order, collapsing runs.
func tagsOf(rec *trace.Recorder) []uint64 {
	var tags []uint64
	for _, ev := range rec.Events {
		if len(tags) == 0 || tags[len(tags)-1] != ev.A {
			tags = append(tags, ev.A)
		}
	}
	return tags
}

func TestRunPassOrdersAndFusesReplays(t *testing.T) {
	e := New(4)
	recAB := &trace.Recorder{}
	recB := &trace.Recorder{}
	recC := &trace.Recorder{}
	wA := PassWorkload{Key: "A", Capture: passCapture(1, 10)}
	wB := PassWorkload{Key: "B", Capture: passCapture(2, 20)}
	wC := PassWorkload{Key: "C", Capture: passCapture(3, 5)}
	err := e.RunPass([]Subscription{
		{Sinks: []trace.Sink{recAB}, Workloads: []PassWorkload{wA, wB}},
		{Sinks: []trace.Sink{recB}, Workloads: []PassWorkload{wB}},
		{Sinks: []trace.Sink{recC}, Workloads: []PassWorkload{wC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tagsOf(recAB); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("ordered subscription saw tags %v, want [1 2]", got)
	}
	if len(recAB.Events) != 30 {
		t.Errorf("ordered subscription got %d events, want 30", len(recAB.Events))
	}
	if got := tagsOf(recB); len(got) != 1 || got[0] != 2 {
		t.Errorf("single subscription saw tags %v, want [2]", got)
	}
	if len(recC.Events) != 5 {
		t.Errorf("independent subscription got %d events, want 5", len(recC.Events))
	}
	// The whole pass: each workload run once,
	// however many subscriptions share it.
	if e.Stats().Captures != 3 || e.Stats().Replays != 3 {
		t.Errorf("captures=%d replays=%d, want 3 and 3", e.Stats().Captures, e.Stats().Replays)
	}
	if e.Stats().ReplayedEvents != 35 {
		t.Errorf("replayed %d events, want 35 (each stream once)", e.Stats().ReplayedEvents)
	}
}

func TestRunPassRejectsInconsistentOrders(t *testing.T) {
	e := Serial()
	r1, r2 := &trace.Recorder{}, &trace.Recorder{}
	wA := PassWorkload{Key: "A", Capture: passCapture(1, 1)}
	wB := PassWorkload{Key: "B", Capture: passCapture(2, 1)}
	err := e.RunPass([]Subscription{
		{Sinks: []trace.Sink{r1}, Workloads: []PassWorkload{wA, wB}},
		{Sinks: []trace.Sink{r2}, Workloads: []PassWorkload{wB, wA}},
	})
	if err == nil || !strings.Contains(err.Error(), "inconsistently") {
		t.Fatalf("conflicting orders not rejected: %v", err)
	}
	// A planning defect is detected before the pass touches any cell.
	if st := e.Stats(); st.Captures != 0 || st.Replays != 0 {
		t.Fatalf("rejected pass ran anyway: captures=%d replays=%d", st.Captures, st.Replays)
	}
	if len(r1.Events)+len(r2.Events) != 0 {
		t.Fatal("rejected pass fed its sinks")
	}
}

func TestRunPassRejectsRepeatedWorkload(t *testing.T) {
	e := Serial()
	r := &trace.Recorder{}
	w := PassWorkload{Key: "A", Capture: passCapture(1, 1)}
	err := e.RunPass([]Subscription{{Sinks: []trace.Sink{r}, Workloads: []PassWorkload{w, w}}})
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("repeated workload not rejected: %v", err)
	}
}

func TestRunPassSerializesSharedSinkAcrossSubscriptions(t *testing.T) {
	// Two subscriptions with disjoint workloads but a shared sink must
	// not feed it from two goroutines: the planner joins their chains.
	e := New(8)
	shared := &trace.Recorder{}
	err := e.RunPass([]Subscription{
		{Sinks: []trace.Sink{shared}, Workloads: []PassWorkload{{Key: "A", Capture: passCapture(1, 100)}}},
		{Sinks: []trace.Sink{shared}, Workloads: []PassWorkload{{Key: "B", Capture: passCapture(2, 100)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.Events) != 200 {
		t.Fatalf("shared sink got %d events, want 200", len(shared.Events))
	}
	// Deterministic schedule: smallest-id workload first.
	if got := tagsOf(shared); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("shared sink saw tags %v, want [1 2]", got)
	}
}

func TestRunPassEmptyAndNoSinks(t *testing.T) {
	e := Serial()
	if err := e.RunPass(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.RunPass([]Subscription{{Workloads: []PassWorkload{{Key: "A", Capture: passCapture(1, 3)}}}}); err != nil {
		t.Fatal(err)
	}
	// A sink-less subscription feeds nobody, so its workload never runs.
	if e.Stats().Captures != 0 {
		t.Errorf("captures=%d, want 0", e.Stats().Captures)
	}
}

func TestRunPassConcurrentPasses(t *testing.T) {
	// Several passes over the same engine (the -race hammer's shape):
	// each pass runs its own workloads into its own sinks.
	e := New(8)
	var wg sync.WaitGroup
	out := make([][]int, 6)
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs := []*trace.Recorder{{}, {}}
			err := e.RunPass([]Subscription{
				{Sinks: []trace.Sink{recs[0]}, Workloads: []PassWorkload{
					{Key: "A", Capture: passCapture(1, 50)},
					{Key: "B", Capture: passCapture(2, 50)},
				}},
				{Sinks: []trace.Sink{recs[1]}, Workloads: []PassWorkload{
					{Key: "C", Capture: passCapture(3, 50)},
				}},
			})
			if err != nil {
				t.Error(err)
				return
			}
			out[g] = []int{len(recs[0].Events), len(recs[1].Events)}
		}()
	}
	wg.Wait()
	for g, ns := range out {
		if len(ns) != 2 || ns[0] != 100 || ns[1] != 50 {
			t.Errorf("pass %d event counts %v, want [100 50]", g, ns)
		}
	}
	if e.Stats().Captures != 18 {
		t.Errorf("captures=%d, want 18 (three runs per pass)", e.Stats().Captures)
	}
}

// passGraph is a subscription graph with sinks named by index, so the
// same shape can be materialized against fresh recorders for every run.
type passGraph struct {
	sinks int
	subs  []passSub
}

type passSub struct {
	sinks []int // indices into the graph's recorders; repeats allowed
	keys  []int // workload indices, in subscription order
}

// randomPassGraph draws a graph whose subscriptions are all consistent
// with one hidden workload order, and forces the shapes the planner must
// handle: a sink shared across subscriptions, one sink named twice in a
// subscription, and a sink-less subscription.
func randomPassGraph(rng *rand.Rand, keys int) passGraph {
	perm := rng.Perm(keys)
	g := passGraph{sinks: 2 + rng.IntN(6)}
	nsubs := 3 + rng.IntN(6)
	for i := 0; i < nsubs; i++ {
		var sub passSub
		for _, k := range perm {
			if rng.IntN(2) == 0 {
				sub.keys = append(sub.keys, k)
			}
		}
		if len(sub.keys) == 0 {
			sub.keys = []int{perm[rng.IntN(keys)]}
		}
		for n := 1 + rng.IntN(3); n > 0; n-- {
			sub.sinks = append(sub.sinks, rng.IntN(g.sinks))
		}
		g.subs = append(g.subs, sub)
	}
	g.subs[0].sinks = append(g.subs[0].sinks, 0, 0)
	g.subs[1].sinks = append(g.subs[1].sinks, 0)
	g.subs[2].sinks = nil
	return g
}

// run materializes the graph with fresh recorders and replays it.
func (g passGraph) run(t *testing.T, e *Engine) []*trace.Recorder {
	t.Helper()
	recs := make([]*trace.Recorder, g.sinks)
	for i := range recs {
		recs[i] = &trace.Recorder{}
	}
	subs := make([]Subscription, len(g.subs))
	for i, sub := range g.subs {
		for _, si := range sub.sinks {
			subs[i].Sinks = append(subs[i].Sinks, recs[si])
		}
		for _, k := range sub.keys {
			subs[i].Workloads = append(subs[i].Workloads, PassWorkload{
				Key:     fmt.Sprintf("w%d", k),
				Capture: passCapture(uint64(k+1), 50+37*k),
			})
		}
	}
	if err := e.RunPass(subs); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestRunPassMatchesSerialSchedule(t *testing.T) {
	// The parallel DAG schedule must hand every sink exactly the stream
	// the serial reference gives it, whatever the graph and pool size.
	rng := rand.New(rand.NewPCG(12, 1))
	for gi := 0; gi < 40; gi++ {
		g := randomPassGraph(rng, 2+rng.IntN(9))
		want := g.run(t, Serial())
		for _, workers := range []int{1, 2, 8} {
			got := g.run(t, New(workers))
			for si := range want {
				if !reflect.DeepEqual(got[si].Events, want[si].Events) {
					t.Fatalf("graph %d (%+v), %d workers: sink %d saw tags %v, serial saw %v",
						gi, g, workers, si, tagsOf(got[si]), tagsOf(want[si]))
				}
			}
		}
	}
}

// rendezvousSink blocks its first delivery until its partner's first
// delivery arrives, proving the two replays overlap in time. A schedule
// that runs them one after the other times out instead of deadlocking.
type rendezvousSink struct {
	once     sync.Once
	arrived  chan struct{}
	partner  *rendezvousSink
	timedOut bool
}

func (r *rendezvousSink) Emit(trace.Event) {
	r.once.Do(func() {
		close(r.arrived)
		select {
		case <-r.partner.arrived:
		case <-time.After(5 * time.Second):
			r.timedOut = true
		}
	})
}

func TestRunPassOverlapsChainsJoinedBySuite(t *testing.T) {
	// The Table 10 shape: two applications aggregate their own input
	// chains, and a suite demand chains the applications' first inputs.
	// Every workload is connected, but no sink needs the two tails
	// ordered, so they must replay concurrently.
	w := func(key string, tag uint64) PassWorkload {
		return PassWorkload{Key: key, Capture: passCapture(tag, 100)}
	}
	a0, a1, a2 := w("a0", 1), w("a1", 2), w("a2", 3)
	b0, b1, b2 := w("b0", 4), w("b1", 5), w("b2", 6)
	appA, appB, suite := &trace.Recorder{}, &trace.Recorder{}, &trace.Recorder{}
	tailA := &rendezvousSink{arrived: make(chan struct{})}
	tailB := &rendezvousSink{arrived: make(chan struct{}), partner: tailA}
	tailA.partner = tailB

	e := New(2)
	err := e.RunPass([]Subscription{
		{Sinks: []trace.Sink{appA}, Workloads: []PassWorkload{a0, a1, a2}},
		{Sinks: []trace.Sink{appB}, Workloads: []PassWorkload{b0, b1, b2}},
		{Sinks: []trace.Sink{suite}, Workloads: []PassWorkload{a0, b0}},
		{Sinks: []trace.Sink{tailA}, Workloads: []PassWorkload{a2}},
		{Sinks: []trace.Sink{tailB}, Workloads: []PassWorkload{b2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tailA.timedOut || tailB.timedOut {
		t.Fatal("chain tails replayed one after the other: the suite demand serialized both applications")
	}
	for _, c := range []struct {
		rec  *trace.Recorder
		want []uint64
	}{{appA, []uint64{1, 2, 3}}, {appB, []uint64{4, 5, 6}}, {suite, []uint64{1, 4}}} {
		if got := tagsOf(c.rec); !reflect.DeepEqual(got, c.want) {
			t.Errorf("sink saw tags %v, want %v", got, c.want)
		}
	}
	if e.Stats().Captures != 6 || e.Stats().Replays != 6 {
		t.Errorf("captures=%d replays=%d, want 6 and 6", e.Stats().Captures, e.Stats().Replays)
	}
}
