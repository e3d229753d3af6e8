package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"memotable/internal/engine"
	"memotable/internal/experiments"
	"memotable/internal/memo"
	"memotable/internal/trace"
	"memotable/internal/tracestore"
)

// The layer sweeps. A pass interleaves every layer on two cores, so its
// spans say where a pass spent its time but not what one layer costs per
// unit of work. The sweeps call one layer at a time, single-threaded,
// over the traces of every workload the registry demands at the run's
// scale: a store read sweep, the v2 codec both ways (plain and
// compressed), and MEMO-TABLE probes at the four geometries the paper's
// tables turn on.

// memoGeometries are the swept table shapes: the paper's 32-entry 4-way
// basic table, the 1024-entry knee of its size curve, a direct-mapped
// table, and the unbounded reuse ceiling.
var memoGeometries = []struct {
	name string
	cfg  memo.Config
}{
	{"32x4", memo.Config{Entries: 32, Ways: 4}},
	{"1024x4", memo.Config{Entries: 1024, Ways: 4}},
	{"32x1", memo.Config{Entries: 32, Ways: 1}},
	{"inf", memo.Infinite()},
}

// registryWorkloads returns every distinct workload the whole registry
// demands at scale, in plan order.
func registryWorkloads(scale experiments.Scale) ([]engine.PassWorkload, error) {
	exps, err := experiments.Lookup()
	if err != nil {
		return nil, err
	}
	ctx := &experiments.Context{Eng: engine.New(1), Scale: scale}
	seen := make(map[string]bool)
	var out []engine.PassWorkload
	for _, ex := range exps {
		for _, d := range ex.Plan(ctx).Demands {
			for _, w := range d.Workloads {
				if !seen[w.Key] {
					seen[w.Key] = true
					out = append(out, w)
				}
			}
		}
	}
	return out, nil
}

// buildCorpus captures every workload into a fresh store under dir, two
// captures at a time, and returns the store.
func buildCorpus(dir string, ws []engine.PassWorkload) (*tracestore.Store, error) {
	st, err := tracestore.Open(filepath.Join(dir, "corpus"))
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(ws))
	engine.New(2).Map(len(ws), func(i int) {
		var buf bytes.Buffer
		w, err := trace.NewWriterV2(&buf, false)
		if err == nil {
			ws[i].Capture(w)
			err = w.Close()
		}
		if err == nil {
			err = st.Put(ws[i].Key, buf.Bytes())
		}
		errs[i] = err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", ws[i].Key, err)
		}
	}
	return st, nil
}

// sweepTotals accumulates one sweep's work and time.
type sweepTotals struct {
	getNS, getBytes                  int64
	events, plainBytes               int64
	encodeNS, decodeNS, decodeFlatNS int64
	memoEvents                       int64
	memoNS                           [4]int64
	lookups, hits                    [4]uint64
}

// sweep runs every layer sweep over the store's entries for ws, one
// trace at a time so memory stays bounded by the largest trace.
func sweep(st *tracestore.Store, ws []engine.PassWorkload) (map[string]float64, error) {
	var s sweepTotals
	batch := make([]trace.Event, 0, 4096)
	for _, w := range ws {
		t0 := time.Now()
		data, _, err := st.Get(w.Key)
		s.getNS += int64(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("store get %s: %w", w.Key, err)
		}
		s.getBytes += int64(len(data))

		ns, _, err := decodeAll(data, batch, false)
		if err != nil {
			return nil, err
		}
		s.decodeNS += ns
		_, evs, err := decodeAll(data, batch, true)
		if err != nil {
			return nil, err
		}
		s.events += int64(len(evs))

		var plain countWriter
		t0 = time.Now()
		if err := encode(&plain, evs, false); err != nil {
			return nil, err
		}
		s.encodeNS += int64(time.Since(t0))
		s.plainBytes += plain.n

		var flat bytes.Buffer
		if err := encode(&flat, evs, true); err != nil {
			return nil, err
		}
		ns, _, err = decodeAll(flat.Bytes(), batch, false)
		if err != nil {
			return nil, err
		}
		s.decodeFlatNS += ns

		memoEvs := evs[:0] // evs is not read again
		for _, ev := range evs {
			if ev.Op.Memoizable() {
				memoEvs = append(memoEvs, ev)
			}
		}
		s.memoEvents += int64(len(memoEvs))
		for g, geo := range memoGeometries {
			ts := experiments.NewTableSet(geo.cfg, memo.NonTrivialOnly)
			t0 := time.Now()
			ts.EmitBatch(memoEvs)
			s.memoNS[g] += int64(time.Since(t0))
			for _, op := range experiments.MemoOps {
				stats := ts.Unit(op).Table().Stats()
				s.lookups[g] += stats.Lookups
				s.hits[g] += stats.Hits
			}
		}
	}

	m := map[string]float64{
		"trace.encode_ns_per_event":            perEvent(s.encodeNS, uint64(s.events)),
		"trace.decode_ns_per_event":            perEvent(s.decodeNS, uint64(s.events)),
		"trace.decode_compressed_ns_per_event": perEvent(s.decodeFlatNS, uint64(s.events)),
		"trace.bytes_per_event":                float64(s.plainBytes) / float64(max(s.events, 1)),
		"tracestore.get_mb_per_s":              float64(s.getBytes) / (1 << 20) / seconds(max(s.getNS, 1)),
	}
	for g, geo := range memoGeometries {
		m["memo.ns_per_event."+geo.name] = perEvent(s.memoNS[g], uint64(s.memoEvents))
		ratio := 0.0
		if s.lookups[g] > 0 {
			ratio = float64(s.hits[g]) / float64(s.lookups[g])
		}
		m["memo.hit_ratio."+geo.name] = ratio
	}
	return m, nil
}

// decodeAll reads a v2 trace block by block, the way the engine's byte
// replay path does, and returns the time it took. With keep set it also
// returns the decoded events (the copy is then part of the time, so only
// untimed callers keep).
func decodeAll(data []byte, batch []trace.Event, keep bool) (int64, []trace.Event, error) {
	var evs []trace.Event
	t0 := time.Now()
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	for {
		b, err := r.ReadBatch(batch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, nil, err
		}
		if keep {
			evs = append(evs, b...)
		}
	}
	return int64(time.Since(t0)), evs, nil
}

// encode writes events as a v2 trace.
func encode(w io.Writer, evs []trace.Event, compress bool) error {
	tw, err := trace.NewWriterV2(w, compress)
	if err != nil {
		return err
	}
	for _, ev := range evs {
		tw.Emit(ev)
	}
	return tw.Close()
}

// countWriter discards bytes and counts them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
