package trace

// Sink grouping helpers for fused replay planners: a planner collects
// several subscriptions' sink groups for one workload and needs a single
// sink list plus the per-sink class masks to drive block skipping.

// Flatten concatenates sink groups into one sink list, preserving
// group order and the order within each group. Duplicates are kept: a
// sink subscribed through two groups is owed two deliveries.
func Flatten(groups ...[]Sink) []Sink {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	out := make([]Sink, 0, n)
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// SinkMasks snapshots each sink's advertised class mask once, so a fused
// replay's per-block skip test is a single AND per sink.
func SinkMasks(sinks []Sink) []OpMask {
	masks := make([]OpMask, len(sinks))
	for i, s := range sinks {
		masks[i] = SinkMask(s)
	}
	return masks
}

// FanoutGrouper is the method set of a sink that asked for a fan-out
// affinity key. Replays no longer fan out, so the engine never calls
// it. memobench reads it; it goes with the next benchmark change.
type FanoutGrouper interface {
	FanoutGroup() string
}

// GroupedSink was a sink tagged with a fan-out affinity key. Nothing in
// this module builds one any more. memobench reads it; it goes with the
// next benchmark change.
type GroupedSink struct {
	Sink
	Key string
}
