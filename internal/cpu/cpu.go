// Package cpu is the cycle model that turns an instrumented workload's
// event stream into whole-application cycle counts. It mirrors the paper's
// enhanced simulator (§3.3): an in-order machine charging per-class
// instruction latencies, a two-level cache hierarchy for memory
// operations, and memo-enhanced computation units where MEMO-TABLEs are
// attached — a table hit completes its operation in a single cycle.
//
// The model splits that simulator at the one place the processor enters.
// A Model is a processor-independent tally of one stream: how many events
// of each class it carried, and which level of the default hierarchy
// served each load and store. On prices the tally on a processor, with
// the MEMO-TABLE units that rode the same stream, in closed form. So one
// replay answers every latency point and every table choice, and a
// stream's tally is simulated once however many machines read it.
//
// As in the paper, multiple issue and inter-instruction pipelining are not
// modelled: the indicator is the total cycle count executed by all
// instructions, which isolates the superfluous cycles the tables avoid.
package cpu

import (
	"fmt"

	"memotable/internal/cache"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/trace"
)

// DefaultL1 is the first-level cache geometry (16 KB, 32-byte lines,
// 2-way), in line with the on-chip caches of the paper's Table 1 machines.
var DefaultL1 = cache.Config{SizeBytes: 16 * 1024, LineBytes: 32, Ways: 2}

// DefaultL2 is the second-level cache geometry (256 KB, 64-byte lines,
// 4-way).
var DefaultL2 = cache.Config{SizeBytes: 256 * 1024, LineBytes: 64, Ways: 4}

// Hierarchy levels a memory access can be served from.
const (
	levelL1 = iota
	levelL2
	levelMem
	numLevels
)

// Model tallies one event stream. It implements trace.Sink so it can ride
// the same stream as MEMO-TABLE hit-ratio measurements and trace writers.
// The tally depends on the stream alone: the hierarchy is the fixed
// DefaultL1/DefaultL2 pair, and no processor or unit is consulted until
// On prices it.
type Model struct {
	l1, l2 *cache.Cache
	counts [isa.NumOps]uint64
	// served counts loads and stores, indexed by op - OpLoad, by the
	// level that served them.
	served [2]levels
}

// levels counts memory accesses by the hierarchy level that served them.
type levels [numLevels]uint64

// New builds an empty tally over the default cache hierarchy.
func New() *Model {
	return &Model{l1: cache.New(DefaultL1), l2: cache.New(DefaultL2)}
}

// Emit implements trace.Sink: count one event, and walk the hierarchy
// for a load or store.
func (m *Model) Emit(ev trace.Event) {
	m.counts[ev.Op]++
	if ev.Op == isa.OpLoad || ev.Op == isa.OpStore {
		m.served[ev.Op-isa.OpLoad][m.level(ev.A)]++
	}
}

// EmitBatch implements trace.BatchSink: the model consumes every event
// class, so batching only saves the per-event interface dispatch.
func (m *Model) EmitBatch(evs []trace.Event) {
	for _, ev := range evs {
		m.Emit(ev)
	}
}

// level is the hierarchy level that serves an access to addr; L2 is
// consulted only on an L1 miss.
func (m *Model) level(addr uint64) int {
	switch {
	case m.l1.Access(addr):
		return levelL1
	case m.l2.Access(addr):
		return levelL2
	default:
		return levelMem
	}
}

// ClassCount returns the number of events of one op class.
func (m *Model) ClassCount(op isa.Op) uint64 { return m.counts[op] }

// L1Stats returns the first-level cache statistics.
func (m *Model) L1Stats() cache.Stats { return m.l1.Stats() }

// L2Stats returns the second-level cache statistics.
func (m *Model) L2Stats() cache.Stats { return m.l2.Stats() }

// Cycles is a tally priced on one machine.
type Cycles struct {
	// Total is the whole stream's cycle count.
	Total uint64
	// Saved is the cycles the units' one-cycle answers avoided relative
	// to the same stream on the table-free machine.
	Saved uint64
	// Class is the cycles charged to each op class.
	Class [isa.NumOps]uint64
}

// Fraction returns the fraction of total cycles spent in the given
// classes: the paper's Fraction Enhanced when evaluated on a baseline
// (table-free) machine.
func (c Cycles) Fraction(ops ...isa.Op) float64 {
	if c.Total == 0 {
		return 0
	}
	var n uint64
	for _, op := range ops {
		n += c.Class[op]
	}
	return float64(n) / float64(c.Total)
}

// On prices the tally on proc with the given memo units attached to
// their classes' computation units; no units prices the baseline
// machine. Each class costs its count times its latency, and loads and
// stores cost by the level that served them. A unit answers its table
// hits — and, under the Integrated policy, its trivial operations — in
// one cycle instead of the full latency; under the other policies a
// trivial operation still occupies the unit.
//
// The units must have ridden the same stream as the model. Nil units
// are skipped. A unit whose operation count differs from the tally's,
// a unit passed twice, or two units for one class are programming
// errors and panic.
func (m *Model) On(proc isa.Processor, units ...*memo.Unit) Cycles {
	var attached [isa.NumOps]*memo.Unit
	for _, u := range units {
		if u == nil {
			continue
		}
		op := u.Table().Op()
		switch prev := attached[op]; {
		case prev == u:
			panic(fmt.Sprintf("cpu: %v unit attached twice", op))
		case prev != nil:
			panic(fmt.Sprintf("cpu: two units for class %v", op))
		}
		if u.TotalOps() != m.counts[op] {
			panic(fmt.Sprintf("cpu: %v unit saw %d operations, the tally %d: not the same stream",
				op, u.TotalOps(), m.counts[op]))
		}
		attached[op] = u
	}
	var c Cycles
	for op := isa.Op(0); op < isa.NumOps; op++ {
		var cyc uint64
		switch op {
		case isa.OpLoad, isa.OpStore:
			cyc = m.served[op-isa.OpLoad].price(proc)
		default:
			full := uint64(proc.LatencyOf(op))
			cyc = m.counts[op] * full
			if u := attached[op]; u != nil {
				fast := oneCycleAnswers(u)
				cyc = cyc - fast*full + fast
				if full > 1 {
					c.Saved += fast * (full - 1)
				}
			}
		}
		c.Class[op] = cyc
		c.Total += cyc
	}
	return c
}

// price charges accesses at proc's latency for each level.
func (s levels) price(proc isa.Processor) uint64 {
	return s[levelL1]*uint64(proc.L1Hit) + s[levelL2]*uint64(proc.L2Hit) + s[levelMem]*uint64(proc.Mem)
}

// oneCycleAnswers counts the operations a unit completed in one cycle:
// its table hits, plus its trivial operations when detection is
// integrated ahead of the unit.
func oneCycleAnswers(u *memo.Unit) uint64 {
	st := u.Table().Stats()
	if u.Policy() == memo.Integrated {
		return st.Hits + st.Trivial
	}
	return st.Hits
}
