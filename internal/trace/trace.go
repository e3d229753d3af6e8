// Package trace defines the operand event stream that replaces the paper's
// Shade instrumentation. Shade executed SPARC binaries and broke on
// multiplication and division instructions to capture register values
// (§3); here, instrumented workloads emit one Event per dynamic operation,
// carrying exactly the information Shade's breakpoints collected: the
// operation class and the operand bit patterns (or the address, for memory
// operations).
//
// Events flow to Sinks: MEMO-TABLE simulators, cycle counters, frequency
// counters and trace-file writers all consume the same stream, so one
// workload execution can feed any number of measurements.
package trace

import "memotable/internal/isa"

// Event is one dynamic operation. For arithmetic classes A and B hold the
// operand bit patterns (B zero for unary classes); for OpLoad/OpStore A
// holds the byte address; for other classes the fields are zero.
type Event struct {
	Op   isa.Op
	A, B uint64
}

// Sink consumes a stream of events.
type Sink interface {
	Emit(ev Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(ev Event) { f(ev) }

// Multi fans one stream out to several sinks in order.
type Multi []Sink

// Emit implements Sink.
func (m Multi) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Counter tallies events per operation class — the "frequency breakdown of
// all instructions" the paper's simulator collected alongside the operand
// traces.
type Counter struct {
	Counts [isa.NumOps]uint64
}

// Emit implements Sink.
func (c *Counter) Emit(ev Event) { c.Counts[ev.Op]++ }

// Total returns the total event count.
func (c *Counter) Total() uint64 {
	var t uint64
	for _, n := range c.Counts {
		t += n
	}
	return t
}

// Of returns the count for one class.
func (c *Counter) Of(op isa.Op) uint64 { return c.Counts[op] }

// Reset zeroes the counters.
func (c *Counter) Reset() { c.Counts = [isa.NumOps]uint64{} }

// Recorder buffers events in memory, mainly for tests and small replays.
type Recorder struct {
	Events []Event
}

// Emit implements Sink.
func (r *Recorder) Emit(ev Event) { r.Events = append(r.Events, ev) }
