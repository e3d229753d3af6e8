package engine

import (
	"sort"

	"memotable/internal/trace"
)

// The engine's observability layer. Historically every counter grew its
// own getter, which meant N lock round-trips for one report and a getter
// sprawl no front-end could serialize. Stats flattens the whole picture
// into one snapshot struct — counters loaded atomically, cache-shape
// fields read under one acquisition of the cache lock — that marshals
// directly to JSON (flat, snake_case, CSV-friendly): take one Stats()
// and read its fields.
//
// Tiers() is the structural companion: each cache layer — memory,
// decoded blocks, overflowed captures, the persistent store — presented through
// the narrow Tier interface (name, entry count, resident bytes), which
// is how the service front-end and the CLI describe the cache without
// reaching into engine internals.

// Stats is a point-in-time snapshot of every engine counter and
// cache-shape figure. Counter fields are monotonic; shape fields
// (cached/spilled/decoded, budget) describe the instant of the call.
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
	e.mu.Lock()
	s.CachedBytes = e.memBytes
	s.DecodedBlockBytes = e.blockBytes
	for _, ent := range e.traces {
		switch ent.state {
		case stateMemory:
			s.CachedTraces++
		case stateDisk:
			if ent.spilled {
				s.SpilledTraces++
			}
		}
		if ent.blocks != nil {
			s.DecodedEntries++
		}
	}
	e.mu.Unlock()
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

// Tier is the narrow read-only view of one cache layer: what it is, how
// many entries it holds, and how many bytes they occupy.
type Tier interface {
	// Name identifies the layer ("memory", "blocks", "spill", "store").
	Name() string
	// Entries returns the number of entries resident in the layer.
	Entries() int
	// Bytes returns the bytes those entries occupy (encoded bytes for
	// memory and spill, decoded cost for blocks, on-disk size for store).
	Bytes() int64
}

// TierStats is the serializable form of one Tier's view.
type TierStats struct {
	Name    string `json:"name"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// Tiers returns the engine's cache layers, outermost first: the memory
// tier (encoded v2 bytes), the decoded-block tier, the spill view (disk
// entries settled by overflowing captures), and — when a persistent
// store is attached — the store tier.
func (e *Engine) Tiers() []Tier {
	tiers := []Tier{memoryTier{e}, blockTier{e}, spillTier{e}}
	if e.Store() != nil {
		tiers = append(tiers, storeTier{e})
	}
	return tiers
}

// TierStats snapshots every tier of Tiers into serializable form.
func (e *Engine) TierStats() []TierStats {
	tiers := e.Tiers()
	out := make([]TierStats, len(tiers))
	for i, t := range tiers {
		out[i] = TierStats{Name: t.Name(), Entries: t.Entries(), Bytes: t.Bytes()}
	}
	return out
}

// countTier tallies entries matching keep and sums bytes via cost, under
// one acquisition of the cache lock — the shared body of the in-process
// tier views.
func (e *Engine) countTier(keep func(*traceEntry) bool, cost func(*traceEntry) int64) (int, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int
	var b int64
	for _, ent := range e.traces {
		if keep(ent) {
			n++
			b += cost(ent)
		}
	}
	return n, b
}

// memoryTier views the encoded in-memory trace cache as a Tier.
type memoryTier struct{ e *Engine }

func (t memoryTier) Name() string { return "memory" }
func (t memoryTier) Entries() int {
	n, _ := t.e.countTier(
		func(ent *traceEntry) bool { return ent.state == stateMemory },
		func(ent *traceEntry) int64 { return trace.SegmentsLen(ent.data) })
	return n
}
func (t memoryTier) Bytes() int64 {
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	return t.e.memBytes
}

// blockTier views the decoded-block cache as a Tier.
type blockTier struct{ e *Engine }

func (t blockTier) Name() string { return "blocks" }
func (t blockTier) Entries() int {
	n, _ := t.e.countTier(
		func(ent *traceEntry) bool { return ent.blocks != nil },
		func(ent *traceEntry) int64 { return ent.blockBytes })
	return n
}
func (t blockTier) Bytes() int64 {
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	return t.e.blockBytes
}

// spillTier views, as a Tier, the disk-tier entries an overflowing
// capture settled (in the attached store or the scratch one). Store hits
// replayed in place are the store tier's, not the spill tier's.
type spillTier struct{ e *Engine }

func (t spillTier) Name() string { return "spill" }
func (t spillTier) Entries() int {
	n, _ := t.spilled()
	return n
}
func (t spillTier) Bytes() int64 {
	_, b := t.spilled()
	return b
}
func (t spillTier) spilled() (int, int64) {
	return t.e.countTier(
		func(ent *traceEntry) bool { return ent.state == stateDisk && ent.spilled },
		func(ent *traceEntry) int64 { return ent.body })
}

// storeTier views the attached persistent trace store as a Tier. Store
// I/O failures read as an empty tier — the store is an accelerator, and
// its stats follow the same can't-hurt contract as its entries.
type storeTier struct{ e *Engine }

func (t storeTier) Name() string { return "store" }
func (t storeTier) Entries() int {
	st := t.e.Store()
	if st == nil {
		return 0
	}
	n, _ := st.Len()
	return n
}
func (t storeTier) Bytes() int64 {
	st := t.e.Store()
	if st == nil {
		return 0
	}
	b, _ := st.Bytes()
	return b
}
