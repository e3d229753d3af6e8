package engine

import (
	"sort"

	"memotable/internal/tracestore"
)

// The engine's observability layer. Historically every counter grew its
// own getter, which meant N lock round-trips for one report and a getter
// sprawl no front-end could serialize. Stats flattens the whole picture
// into one snapshot struct — counters loaded atomically, cache-shape
// fields read under one acquisition of the cache lock — that marshals
// directly to JSON (flat, snake_case, CSV-friendly): take one Stats()
// and read its fields.
//
// TierStats is the structural companion: each cache layer — memory,
// decoded blocks, overflowed captures, the persistent store — as a name,
// an entry count and resident bytes, which is how the service front-end
// describes the cache without reaching into engine internals.

// Stats is a point-in-time snapshot of every engine counter and
// cache-shape figure. Counter fields are monotonic, except that
// StoreHits withdraws a store hit whose read fails before delivering an
// event; shape fields (cached/spilled/decoded, budget) describe the
// instant of the call.
type Stats struct {
	Workers int `json:"workers"`

	// Capture/replay pipeline.
	Captures         uint64 `json:"captures"`
	Replays          uint64 `json:"replays"`
	Recaptures       uint64 `json:"recaptures"`
	DecodeOnceHits   uint64 `json:"decode_once_hits"`
	ReplayedEvents   uint64 `json:"replayed_events"`
	SpillRetries     uint64 `json:"spill_retries"`
	DegradedCaptures uint64 `json:"degraded_captures"`
	StoreHits        uint64 `json:"store_hits"`
	StorePuts        uint64 `json:"store_puts"`

	// Delivery (deliver.go): per-sink events fed, and (sink, batch)
	// deliveries skipped by class mask.
	DeliveredEvents uint64 `json:"delivered_events"`
	MaskSkips       uint64 `json:"mask_skips"`

	// FanoutReplays always reads 0: replays no longer fan out to
	// delivery goroutines. memobench reads it; the field goes with the
	// next benchmark change.
	FanoutReplays uint64 `json:"fanout_replays"`
	// RingStalls always reads 0, for the same reason and with the same
	// fate as FanoutReplays.
	RingStalls uint64 `json:"ring_stalls"`

	// Live ingest.
	IngestedFrames uint64 `json:"ingested_frames"`
	IngestedEvents uint64 `json:"ingested_events"`
	IngestedBytes  uint64 `json:"ingested_bytes"`
	SealedIngests  uint64 `json:"sealed_ingests"`

	// Cache shape.
	CachedTraces      int   `json:"cached_traces"`
	SpilledTraces     int   `json:"spilled_traces"`
	CachedBytes       int64 `json:"cached_bytes"`
	DecodedEntries    int   `json:"decoded_entries"`
	DecodedBlockBytes int64 `json:"decoded_block_bytes"`

	// Root budget.
	BudgetLimit    int64 `json:"budget_limit"`
	BudgetUsed     int64 `json:"budget_used"`
	BudgetReserved int64 `json:"budget_reserved"`
}

// Stats snapshots the engine. Atomic counters are loaded individually
// and the cache shape is read under one acquisition of the cache lock,
// so the snapshot is consistent within each group; a snapshot taken
// while work is in flight is a valid point-in-time view, not a fence.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:          e.workers,
		Captures:         e.captures.Load(),
		Replays:          e.replays.Load(),
		Recaptures:       e.recaptures.Load(),
		DecodeOnceHits:   e.decodeHits.Load(),
		ReplayedEvents:   e.replayedEv.Load(),
		SpillRetries:     e.spillRetry.Load(),
		DegradedCaptures: e.degradedCap.Load(),
		StoreHits:        e.storeHits.Load(),
		StorePuts:        e.storePuts.Load(),
		DeliveredEvents:  e.deliveredEv.Load(),
		MaskSkips:        e.maskSkips.Load(),
		IngestedFrames:   e.ingestFrames.Load(),
		IngestedEvents:   e.ingestEvents.Load(),
		IngestedBytes:    e.ingestBytes.Load(),
		SealedIngests:    e.sealedIngests.Load(),
	}
	mem, blocks, spill, _ := e.shape()
	s.CachedTraces, s.CachedBytes = mem.Entries, mem.Bytes
	s.DecodedEntries, s.DecodedBlockBytes = blocks.Entries, blocks.Bytes
	s.SpilledTraces = spill.Entries
	s.BudgetLimit = e.budget.Limit()
	s.BudgetUsed = e.budget.Used()
	s.BudgetReserved = e.budget.Reserved()
	return s
}

// TraceFingerprints returns the sorted workload fingerprints of every
// settled cache entry (memory or disk tier, spilled or replayed in place
// from the store). This is what a fleet worker's provenance chain binds
// its run to: the exact set of traces the shard captured or adopted,
// independent of which tier holds them or whether they came warm from
// the store.
func (e *Engine) TraceFingerprints() []string {
	e.mu.Lock()
	keys := make([]string, 0, len(e.traces))
	for k, ent := range e.traces {
		if ent.state == stateMemory || ent.state == stateDisk {
			keys = append(keys, k)
		}
	}
	e.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// TierStats describes one cache layer: what it is, how many entries it
// holds, and how many bytes they occupy (encoded bytes for memory and
// spill, decoded cost for blocks, on-disk size for store).
type TierStats struct {
	Name    string `json:"name"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// shape walks the cache once under its lock: the memory tier (encoded v2
// bytes), the decoded-block tier, the spill view (disk-tier entries an
// overflowing arm settled, in the attached store or the scratch one;
// store hits replayed in place are not spilled), and the attached store.
func (e *Engine) shape() (mem, blocks, spill TierStats, st *tracestore.Store) {
	mem, blocks, spill = TierStats{Name: "memory"}, TierStats{Name: "blocks"}, TierStats{Name: "spill"}
	e.mu.Lock()
	defer e.mu.Unlock()
	mem.Bytes, blocks.Bytes = e.memBytes, e.blockBytes
	for _, ent := range e.traces {
		switch {
		case ent.state == stateMemory:
			mem.Entries++
		case ent.state == stateDisk && ent.spilled:
			spill.Entries++
			spill.Bytes += ent.body
		}
		if ent.blocks != nil {
			blocks.Entries++
		}
	}
	return mem, blocks, spill, e.tstore
}

// TierStats returns the engine's cache layers, outermost first: memory,
// blocks, spill and — when a persistent store is attached — the store,
// whose entry count and size are read outside the cache lock. Store I/O
// failures read as an empty tier: the store is an accelerator, and its
// stats follow the same can't-hurt contract as its entries.
func (e *Engine) TierStats() []TierStats {
	mem, blocks, spill, st := e.shape()
	tiers := []TierStats{mem, blocks, spill}
	if st != nil {
		n, _ := st.Len()
		b, _ := st.Bytes()
		tiers = append(tiers, TierStats{Name: "store", Entries: n, Bytes: b})
	}
	return tiers
}
