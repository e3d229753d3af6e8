package engine

// The engine's observability layer. Stats flattens the whole picture
// into one snapshot struct of atomically loaded counters that marshals
// directly to JSON (flat, snake_case, CSV-friendly): take one Stats()
// and read its fields.

// Stats is a point-in-time snapshot of every engine counter. Every
// counter is monotonic.
type Stats struct {
	Workers int `json:"workers"`

	// Workload runs: Captures counts every run started, Replays every
	// run that fed its sinks to the end, and ReplayedEvents the events
	// those runs delivered, each stream counted once.
	Captures       uint64 `json:"captures"`
	Replays        uint64 `json:"replays"`
	ReplayedEvents uint64 `json:"replayed_events"`

	// Delivery (deliver.go) of workload runs: per-sink events fed, and
	// (sink, batch) deliveries skipped by class mask. An ingest
	// (ingest.go) counts in neither.
	DeliveredEvents uint64 `json:"delivered_events"`
	MaskSkips       uint64 `json:"mask_skips"`

	// The fields below always read 0: they counted the trace cache,
	// which is gone. They exist only for the frozen benchmark
	// (bench/child.go), which reads them, and go with ROADMAP item 7.
	Recaptures        uint64 `json:"recaptures"`
	DecodeOnceHits    uint64 `json:"decode_once_hits"`
	SpillRetries      uint64 `json:"spill_retries"`
	DegradedCaptures  uint64 `json:"degraded_captures"`
	StoreHits         uint64 `json:"store_hits"`
	StorePuts         uint64 `json:"store_puts"`
	FanoutReplays     uint64 `json:"fanout_replays"`
	RingStalls        uint64 `json:"ring_stalls"`
	SpilledTraces     int    `json:"spilled_traces"`
	DecodedBlockBytes int64  `json:"decoded_block_bytes"`
}

// Stats snapshots the engine's counters. Each is loaded atomically on
// its own, so a snapshot taken while work is in flight is a valid
// point-in-time view of each counter, not a fence across them.
func (e *Engine) Stats() Stats {
	return Stats{
		Workers:         e.workers,
		Captures:        e.captures.Load(),
		Replays:         e.replays.Load(),
		ReplayedEvents:  e.replayedEv.Load(),
		DeliveredEvents: e.deliveredEv.Load(),
		MaskSkips:       e.maskSkips.Load(),
	}
}
