package memo

import "slices"

// Twins runs units of one class, configuration and policy over the same
// columns, and simulates a unit only while its table differs from the
// first unit's. Two finite tables of one class, geometry, tagging scheme
// and policy that hold identical entries and see the same operand pairs
// stay identical and count identical outcomes (the invariant Selective
// Memoization rests on), so once a later unit's entries equal the first
// unit's exactly — tags in the same ways, in the same recency order,
// with the same results and valid bits — it mirrors the first unit: it
// copies the first unit's entries after each column and adds the first
// unit's counter deltas to its own. Its table and counters are then
// exactly what simulating it would have left.
//
// A warm table that has seen earlier workloads and a cold one fed the
// same workload converge once the workload's operand pairs have refilled
// every set; an unbounded table never forgets, so it is always
// simulated.
type Twins struct {
	first *Unit
	later []twin
}

// twin is a unit after a group's first. same records that its entries
// equal the first unit's; it stays true, since a mirrored or simulated
// column keeps the tables equal.
type twin struct {
	u    *Unit
	same bool
}

// Add puts a unit in the group; the zero Twins is an empty group. Every
// unit must share the first's class, configuration and policy, or Add
// panics, and each must compute the same results, as units built with a
// nil compute do. Once grouped, the units are fed only through the
// group, or all alike.
func (g *Twins) Add(u *Unit) {
	if g.first == nil {
		g.first = u
		return
	}
	f := g.first
	if u.table.op != f.table.op || u.table.cfg != f.table.cfg || u.policy != f.policy {
		panic("memo: twins differ in class, configuration or policy")
	}
	g.later = append(g.later, twin{u: u})
}

// First returns the unit that always simulates, or nil for an empty
// group.
func (g *Twins) First() *Unit { return g.first }

// Mirroring returns how many units of the group mirror the first.
func (g *Twins) Mirroring() int {
	n := 0
	for _, t := range g.later {
		if t.same {
			n++
		}
	}
	return n
}

// ApplyColumn presents the column to every unit, leaving each exactly as
// its own ApplyColumn would. The first unit always simulates the column.
// A later unit not yet known to equal it is compared with it first; if
// the two hold identical entries it mirrors the column, else it
// simulates it.
func (g *Twins) ApplyColumn(c *Column) {
	first := g.first
	for i := range g.later {
		t := &g.later[i]
		if !t.same {
			t.same = t.u.table.sameEntries(first.table)
		}
	}
	before := first.counters()
	first.ApplyColumn(c)
	for _, t := range g.later {
		if t.same {
			t.u.mirror(first, before)
		} else {
			t.u.ApplyColumn(c)
		}
	}
}

// unitCounters is a snapshot of everything a unit counts.
type unitCounters struct {
	total, trivial uint64
	stats          Stats
}

func (u *Unit) counters() unitCounters {
	return unitCounters{total: u.totalOps, trivial: u.trivialOps, stats: u.table.stats}
}

// mirror leaves u as running src's last column would have, given that
// u's entries equaled src's before it: u takes src's entries and adds
// what src counted since before.
func (u *Unit) mirror(src *Unit, before unitCounters) {
	copy(u.table.sets, src.table.sets)
	u.totalOps += src.totalOps - before.total
	u.trivialOps += src.trivialOps - before.trivial
	s, d, b := &u.table.stats, src.table.stats, before.stats
	s.Lookups += d.Lookups - b.Lookups
	s.Hits += d.Hits - b.Hits
	s.Misses += d.Misses - b.Misses
	s.Trivial += d.Trivial - b.Trivial
	s.Bypassed += d.Bypassed - b.Bypassed
	s.Inserts += d.Inserts - b.Inserts
	s.Evictions += d.Evictions - b.Evictions
}

// sameEntries reports whether two finite tables hold identical entries
// in identical ways. An unbounded table is never the same as another:
// twins of it are always simulated.
func (t *Table) sameEntries(o *Table) bool {
	return t.inf == nil && o.inf == nil && slices.Equal(t.sets, o.sets)
}
