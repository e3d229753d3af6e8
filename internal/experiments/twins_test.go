package experiments

import (
	"sort"
	"strings"
	"testing"

	"memotable/internal/engine"
	"memotable/internal/isa"
	"memotable/internal/trace"
)

// perEventSets feeds every event to each set's own units, one Apply at
// a time.
type perEventSets []*TableSet

func (p perEventSets) Emit(ev trace.Event) {
	for _, ts := range p {
		ts.Emit(ev)
	}
}

// TestPassMatchesStandaloneSets plans the whole registry at tiny and
// runs the pass, in which every workload reaches its sets through one
// lead and converged twin tables mirror each other. Then every interned
// set is rebuilt on its own, with the same configuration, policy and
// classes, and fed its sequence's workloads per event through
// Unit.Apply. Each class must end with the same Stats, operation
// counts and entry count.
func TestPassMatchesStandaloneSets(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	eng := engine.New(2)
	ctx := &Context{Eng: eng, Scale: Tiny}
	var demands []Demand
	workloads := make(map[string]Workload)
	for _, ex := range All() {
		for _, d := range ex.Plan(ctx).Demands {
			demands = append(demands, d)
			for _, w := range d.Workloads {
				workloads[w.Key] = w
			}
		}
	}
	if err := eng.RunPass(demands); err != nil {
		t.Fatal(err)
	}
	mirroring := 0
	for _, lead := range ctx.shared.leads {
		for _, groups := range lead.twins {
			for i := range groups {
				mirroring += groups[i].Mirroring()
			}
		}
	}
	if mirroring == 0 {
		t.Fatal("no table mirrored a twin during the pass")
	}
	t.Logf("%d sets over %d leads; %d tables mirrored a twin", len(ctx.shared.tables), len(ctx.shared.leads), mirroring)

	bySeq := make(map[string][]tablesKey)
	for k := range ctx.shared.tables {
		bySeq[k.seq] = append(bySeq[k.seq], k)
	}
	seqs := make([]string, 0, len(bySeq))
	for seq := range bySeq {
		seqs = append(seqs, seq)
	}
	sort.Strings(seqs)
	for _, seq := range seqs {
		keys := bySeq[seq]
		refs := make(perEventSets, len(keys))
		for i, k := range keys {
			refs[i] = newTableSet(k.cfg, k.policy)
			for op := range isa.NumOps {
				if ctx.shared.tables[k].Unit(op) != nil {
					refs[i].widen(op)
				}
			}
		}
		for _, key := range strings.Split(seq, "\x00") {
			workloads[key].Capture(refs)
		}
		for i, k := range keys {
			got := ctx.shared.tables[k]
			for op := range isa.NumOps {
				g, w := got.Unit(op), refs[i].Unit(op)
				if g == nil {
					continue
				}
				if g.TotalOps() != w.TotalOps() || g.TrivialOps() != w.TrivialOps() ||
					g.Table().Stats() != w.Table().Stats() || g.Table().Len() != w.Table().Len() {
					t.Errorf("%v %v over %q: ops %d/%d stats %+v len %d, standalone %d/%d %+v len %d",
						k.cfg, k.policy, strings.ReplaceAll(seq, "\x00", ","), g.TotalOps(), g.TrivialOps(),
						g.Table().Stats(), g.Table().Len(), w.TotalOps(), w.TrivialOps(), w.Table().Stats(), w.Table().Len())
				}
			}
		}
	}
}
