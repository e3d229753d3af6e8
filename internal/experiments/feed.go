package experiments

import (
	"strings"

	"memotable/internal/cpu"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/trace"
)

// Plan-scoped sharing of simulated structures. A MEMO-TABLE's state after
// a stream is a pure function of its class, geometry, policy and the
// stream; a cycle tally's is a pure function of the stream. So two plans
// that ask for the same structure over the same ordered workload
// sequence can read one instance, and the pass simulates each distinct
// machine once: table7, table9, the geometry sweeps and the speedup
// studies read one 32/4 table set per application, figure2 reads
// table8's cells, and every latency point of a speedup study prices one
// tally.
//
// A plan declares a demand through a Feed. Feed hands out the shared
// instances and subscribes only the ones it created, since the engine
// delivers twice to a sink named in two demands. Table sets go further:
// each workload gets one lead set, holding no tables, that is its one
// memo sink, and every set whose sequence contains the workload, of any
// configuration or policy, joins that lead (TableSet.EmitBatch). So each
// block of a workload reaches the MEMO-TABLEs once per pass, however
// many sequences contain the workload. A lead is subscribed over its
// workload alone, by the feed that created it. Every sequence demand
// still lists its whole workload sequence, even when it subscribes no
// sink: the engine orders a subscription's workloads whether or not it
// has sinks, so a set joined to several leads sees its workloads in
// order, and the pass's serial order and the attribution of failed
// workloads to experiments do not depend on what was shared.

// tablesKey names one shared TableSet.
type tablesKey struct {
	seq    string
	cfg    memo.Config
	policy memo.TrivialPolicy
}

// interned holds the shared structures of one Context: table sets and
// cycle tallies by workload sequence, leads by workload key.
type interned struct {
	tables map[tablesKey]*TableSet
	leads  map[string]*TableSet
	models map[string]*cpu.Model
}

// Feed builds one demand over an ordered workload sequence. Build feeds
// while planning, before the pass replays anything.
type Feed struct {
	shared *interned
	seq    string
	ws     []Workload
	sinks  []trace.Sink
	leads  []Demand // one per lead this feed created
}

// Feed starts a demand over the workloads, in order.
func (c *Context) Feed(ws ...Workload) *Feed {
	if c.shared == nil {
		c.shared = &interned{
			tables: make(map[tablesKey]*TableSet),
			leads:  make(map[string]*TableSet),
			models: make(map[string]*cpu.Model),
		}
	}
	keys := make([]string, len(ws))
	for i, w := range ws {
		keys[i] = w.Key
	}
	return &Feed{shared: c.shared, seq: strings.Join(keys, "\x00"), ws: ws}
}

// Tables returns the Context's one TableSet of the configuration and
// policy over the feed's sequence, holding at least a table for each of
// ops. A set another plan asked for with other classes is widened to the
// union. A new set joins the lead of each workload of the sequence; a
// lead's mask is the union of its joined sets', so replays still skip
// blocks with none of their classes.
func (f *Feed) Tables(cfg memo.Config, policy memo.TrivialPolicy, ops ...isa.Op) *TableSet {
	k := tablesKey{seq: f.seq, cfg: cfg, policy: policy}
	ts := f.shared.tables[k]
	if ts == nil {
		ts = newTableSet(cfg, policy)
		f.shared.tables[k] = ts
		for _, w := range f.ws {
			lead := f.shared.leads[w.Key]
			if lead == nil {
				lead = newLead()
				f.shared.leads[w.Key] = lead
				f.leads = append(f.leads, Demand{Sinks: []trace.Sink{lead}, Workloads: []Workload{w}})
			}
			lead.join(ts)
		}
	}
	ts.widen(ops...)
	return ts
}

// Model returns the Context's one cycle tally over the feed's sequence.
func (f *Feed) Model() *cpu.Model {
	m := f.shared.models[f.seq]
	if m == nil {
		m = cpu.New()
		f.shared.models[f.seq] = m
		f.sinks = append(f.sinks, m)
	}
	return m
}

// Sink adds a sink of the caller's own to the demand, unshared.
func (f *Feed) Sink(s trace.Sink) { f.sinks = append(f.sinks, s) }

// Demands returns the feed's sequence demand, which subscribes the
// sinks this feed created to its whole workload sequence, followed by a
// single-workload demand for each lead the feed created.
func (f *Feed) Demands() []Demand {
	return append([]Demand{{Sinks: f.sinks, Workloads: f.ws}}, f.leads...)
}
