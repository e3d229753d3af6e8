package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"memotable/internal/trace"
)

// The cross-experiment replay planner. A single experiment driver fuses
// its own configuration sweep into one ReplayAll per workload, but a
// full evaluation run selects many experiments, and the same workload
// trace feeds most of them — so driver-local fusion still replays each
// workload once per experiment. RunPass plans across that boundary: it
// takes every selected experiment's sink subscriptions at once, groups
// them by workload, and drives one fused replay pass per workload for
// the entire selection.
//
// The one scheduling constraint comes from stateful sinks: a MEMO-TABLE
// set that aggregates an application over its inputs must see those
// inputs' streams back to back, in its declared order. A Subscription
// therefore carries an *ordered* workload sequence, and the planner
// fixes one serial schedule compatible with every subscription — a
// topological order of the per-subscription chains. Subscriptions whose
// sequences disagree (w1 before w2 in one, w2 before w1 in another)
// have no single-pass schedule; RunPass reports them as an error before
// any capture or replay rather than silently replaying twice.
//
// The serial schedule defines what every sink observes; it does not
// have to be executed serially. For each subscription the planner adds
// a precedence edge from each workload of its sequence to the next, and
// for each sink one from each workload that feeds it to the next one
// that does, in serial order. Any execution respecting those edges
// delivers every sink exactly its serial stream, so the pass replays the
// DAG on the worker pool: two workloads run concurrently whenever no
// subscription or sink orders them, even when a chain of shared
// subscriptions connects them.

// PassWorkload names one capturable operand stream for the planner.
type PassWorkload struct {
	Key     string
	Capture CaptureFunc
}

// Subscription subscribes a group of sinks to an ordered workload
// sequence: the sinks observe the workloads' streams back to back, in
// order, exactly as if each workload were replayed for them alone. The
// pass runs the sequence's workloads one after another even when the
// subscription has no sinks, so a sink subscribed elsewhere to each
// workload alone can still rely on their order. A sequence must not
// name the same key twice (that would require two replay passes by
// definition). Sinks must be comparable values —
// pointers or pointer-shaped structs, as every experiment sink is — so
// the planner can detect a sink shared between subscriptions.
type Subscription struct {
	Sinks     []trace.Sink
	Workloads []PassWorkload
}

// passNode is one distinct workload in a pass: its capture, the sink
// groups subscribed to it (in subscription order), the successors its
// subscriptions declare (chain), and its precedence edges in the replay
// DAG (indeg plus succ, as serial positions).
type passNode struct {
	key     string
	capture CaptureFunc
	groups  [][]trace.Sink
	chain   []int
	indeg   int
	succ    []int
}

// RunPass is RunPassContext without cancellation and with fail-fast
// error reporting: planning errors and the first cell failure (if any)
// are returned as one error.
func (e *Engine) RunPass(subs []Subscription) error {
	rep, err := e.RunPassContext(context.Background(), subs)
	if err != nil {
		return err
	}
	return rep.Err()
}

// RunPassContext runs every workload named by the subscriptions exactly
// once, feeding all subscribed sinks in one fused ReplayAll per
// workload. Runs execute on the worker pool in a precedence DAG — two
// workloads run concurrently whenever no sink observes both, and a sink
// fed by several workloads receives them in the pass's deterministic
// serial order — so every sink observes exactly its declared stream
// sequence and results are bit-identical at any worker count.
//
// The pass degrades instead of aborting: a failing cell — a workload
// whose run errors or panics, a sink that panics mid-stream — is
// recorded as a typed *CellError in the returned PassReport and the rest
// of the pass keeps going, so one poisoned cell costs its subscribers,
// not the whole matrix. Cancellation is cooperative: the context is
// checked before each workload runs and before every batch it delivers,
// so a running workload stops at its next batch; once it fires,
// remaining workloads report ErrCanceled and the report is marked
// Canceled. The error return is reserved for planning defects (empty
// keys, repeated workloads, inconsistent subscription orders) —
// failures of the pass's shape, not of any one cell — and is returned
// before anything runs.
func (e *Engine) RunPassContext(ctx context.Context, subs []Subscription) (*PassReport, error) {
	if err := e.begin(); err != nil {
		return nil, err
	}
	defer e.end()
	ids := make(map[string]int)
	var nodes []*passNode
	for _, sub := range subs {
		seen := make(map[string]bool, len(sub.Workloads))
		prev := -1
		for _, w := range sub.Workloads {
			if w.Key == "" {
				return nil, fmt.Errorf("engine: pass workload with empty key")
			}
			if seen[w.Key] {
				return nil, fmt.Errorf("engine: subscription names workload %q twice", w.Key)
			}
			seen[w.Key] = true
			id, ok := ids[w.Key]
			if !ok {
				id = len(nodes)
				ids[w.Key] = id
				nodes = append(nodes, &passNode{key: w.Key, capture: w.Capture})
			}
			nodes[id].groups = append(nodes[id].groups, sub.Sinks)
			if prev >= 0 {
				nodes[prev].chain = append(nodes[prev].chain, id)
			}
			prev = id
		}
	}
	if len(nodes) == 0 {
		return &PassReport{}, nil
	}
	order, err := serialOrder(nodes)
	if err != nil {
		return nil, err
	}
	link(nodes, order)

	rep := &PassReport{}
	e.replayDAG(ctx, rep, nodes, order)
	if ctx.Err() != nil {
		rep.Canceled = true
	}
	rep.seal()
	return rep, nil
}

// serialOrder is the pass's reference schedule: a topological order of
// the subscription chains (Kahn's algorithm with a smallest-id tie
// break, so the order is deterministic). Chains with no common order
// are the inconsistent-ordering planning defect.
func serialOrder(nodes []*passNode) ([]int, error) {
	indeg := make([]int, len(nodes))
	for _, n := range nodes {
		for _, s := range n.chain {
			indeg[s]++
		}
	}
	placed := make([]bool, len(nodes))
	order := make([]int, 0, len(nodes))
	for len(order) < len(nodes) {
		picked := -1
		for id := range nodes {
			if !placed[id] && indeg[id] == 0 {
				picked = id
				break
			}
		}
		if picked < 0 {
			var stuck []string
			for id, n := range nodes {
				if !placed[id] {
					stuck = append(stuck, n.key)
				}
			}
			return nil, fmt.Errorf("engine: subscriptions order workloads inconsistently (no single-pass schedule for %v)", stuck)
		}
		placed[picked] = true
		order = append(order, picked)
		for _, s := range nodes[picked].chain {
			indeg[s]--
		}
	}
	return order, nil
}

// link builds the replay DAG over serial positions: an edge from each
// workload of a subscription to the next one, whether or not the
// subscription has sinks, and for every sink an edge from each workload
// that feeds it to the next one that does. The chain edges let sinks
// that share state across subscriptions — a memo set joined to one lead
// per workload — rely on a sequence's order without being subscribed to
// it.
func link(nodes []*passNode, order []int) {
	pos := make([]int, len(nodes))
	for p, id := range order {
		pos[id] = p
	}
	edge := func(from, to int) {
		nodes[order[from]].succ = append(nodes[order[from]].succ, to)
		nodes[order[to]].indeg++
	}
	lastFed := make(map[trace.Sink]int)
	for p, id := range order {
		// Edges repeated by several chains or sinks are counted into
		// indeg and retired alike.
		for _, next := range nodes[id].chain {
			edge(p, pos[next])
		}
		for _, g := range nodes[id].groups {
			for _, s := range g {
				if prev, ok := lastFed[s]; ok && prev != p {
					edge(prev, p)
				}
				lastFed[s] = p
			}
		}
	}
}

// replayDAG runs every workload once, on the worker pool, in an order
// respecting the sink precedence edges; among ready workloads the
// earliest serial position goes first. A single-worker engine runs the
// serial order inline — the reference path. A workload whose run fails
// is recorded in rep and its successors still run: their streams are
// independent runs, so one poisoned cell must not starve the rest of
// the pass.
func (e *Engine) replayDAG(ctx context.Context, rep *PassReport, nodes []*passNode, order []int) {
	run := func(n *passNode) {
		if ctx.Err() != nil {
			rep.add(&CellError{Key: n.key, Stage: "schedule", Err: ctxErr(ctx)})
		} else if _, err := e.ReplayAllContext(ctx, n.key, n.capture, trace.Flatten(n.groups...)); err != nil {
			rep.add(&CellError{Key: n.key, Stage: stageOf(err), Err: err})
		}
	}
	workers := min(e.workers, len(order))
	if workers <= 1 {
		for _, id := range order {
			run(nodes[id])
		}
		return
	}

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	started := make([]bool, len(order))
	first := 0 // lowest position not yet started
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for {
				pos := -1
				for p := first; p < len(order); p++ {
					if !started[p] && nodes[order[p]].indeg == 0 {
						pos = p
						break
					}
				}
				if pos < 0 {
					if first == len(order) {
						return
					}
					cond.Wait()
					continue
				}
				started[pos] = true
				for first < len(order) && started[first] {
					first++
				}
				n := nodes[order[pos]]
				mu.Unlock()
				run(n)
				mu.Lock()
				for _, s := range n.succ {
					nodes[order[s]].indeg--
				}
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
}

// stageOf names the execution edge a replay error belongs to, for
// CellError attribution.
func stageOf(err error) string {
	switch {
	case errors.Is(err, ErrCaptureFailed):
		return "capture"
	case errors.Is(err, ErrSinkPanic):
		return "sink"
	case errors.Is(err, ErrCanceled):
		return "schedule"
	default:
		return "replay"
	}
}
