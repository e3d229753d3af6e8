package engine

import (
	"os"

	"memotable/internal/trace"
	"memotable/internal/tracestore"
)

// captureArm is the io.Writer a capture encodes into, and the one an
// ingest session lands its stream in (the header, then each delivered
// frame's raw bytes). It lands the v2 byte stream in whichever tier has
// room, deciding mid-stream:
//
//   - While the memory tier is viable, every chunk reserves its size
//     against the capture's BudgetAccountant *before* it is buffered,
//     so used+reserved never exceeds the limit — concurrent
//     captures share the budget instead of each transiently buffering
//     up to the whole remainder. (The encoder's internal frame buffer
//     is the reservation granularity: at most one ~64 KiB frame per
//     in-flight capture sits outside the accounting.) The chunk is
//     copied once, into the capture's frame slabs (trace.SlabWriter);
//     the memory tier adopts those slabs as they are, so the bytes are
//     never regrown or copied again.
//   - The first chunk that cannot be reserved fails the capture over to
//     a trace-store entry (Engine.overflowStore): the slabs — header
//     plus whole frames, because WriterV2 writes frame-atomically — are
//     written to the entry and freed, the reservation is released, and
//     the rest of the stream goes straight to the entry. settle commits
//     it, and the entry settles in the disk tier.
//
// Entry writes fire the store.write injection point and the commit
// fires store.rename; store treats their errors as transient overflow
// I/O and retries the capture under the engine's retry policy.
type captureArm struct {
	e          *Engine
	key        string
	acct       BudgetAccountant // the budget this capture reserves against
	mem        bool             // memory tier still viable
	slabs      trace.SlabWriter
	reserved   int64              // bytes this arm holds reserved in acct
	w          *tracestore.Writer // the overflow entry, once memory refused a chunk
	persistent bool               // w writes into the attached store, not the scratch one
}

// Write implements io.Writer for the capture encoder.
func (a *captureArm) Write(p []byte) (int, error) {
	if a.mem {
		if a.reserve(int64(len(p))) {
			return a.slabs.Write(p)
		}
		a.mem = false
		a.release()
		if err := a.overflow(); err != nil {
			return 0, err
		}
		a.slabs = trace.SlabWriter{} // prefix is in the entry now; free it
	}
	return a.w.Write(p)
}

// reserve takes n bytes of the capture's budget, failing without side
// effects when the budget cannot cover it.
func (a *captureArm) reserve(n int64) bool {
	if !a.acct.Reserve(n) {
		return false
	}
	a.reserved += n
	return true
}

// release returns the arm's reservation to the budget.
func (a *captureArm) release() {
	if a.reserved == 0 {
		return
	}
	a.acct.Release(a.reserved, 0)
	a.reserved = 0
}

// overflow opens the capture's store entry and seeds it with the stream
// prefix held in the slabs.
func (a *captureArm) overflow() error {
	st, persistent, err := a.e.overflowStore()
	if err != nil {
		return err
	}
	w, err := st.Create(a.key)
	if err != nil {
		return err
	}
	for _, seg := range a.slabs.Segments() {
		if _, err := w.Write(seg); err != nil {
			return err // the writer has aborted the entry
		}
	}
	a.w, a.persistent = w, persistent
	return nil
}

// settle settles an in-flight entry from a finished arm: its slabs into
// the memory tier, or its overflow entry into the disk tier. Committing
// the overflow entry is its publish when it lies in the persistent
// store. A commit that fails discards the arm and leaves the entry in
// flight for the caller. events, the stream's count, is kept by a
// memory-tier entry only: the store's verify counts a disk-tier entry's
// events at every read, and its seal covers exactly the bytes written.
func (a *captureArm) settle(ent *traceEntry, events uint64) error {
	if a.mem {
		a.e.settle(ent, a.acct, entrySnapshot{state: stateMemory, data: a.slabs.Segments(), events: events}, false)
		a.reserved = 0
		return nil
	}
	path, err := a.w.Commit()
	if err != nil {
		a.discard()
		return err
	}
	if a.persistent {
		a.e.storePuts.Add(1)
	}
	a.e.settle(ent, a.acct, entrySnapshot{state: stateDisk, path: path, body: a.w.Size()}, true)
	return nil
}

// discard abandons the capture: reservation released, any partial
// overflow entry removed.
func (a *captureArm) discard() {
	a.release()
	if a.w != nil {
		a.w.Abort()
	}
}

// overflowStore returns the store an overflowing capture streams into:
// the attached persistent store (persistent is true), or else the
// engine's scratch store, created on first use in a fresh directory
// under the trace dir and removed by Close. A closed engine refuses the
// scratch store, so none is used or created after Close.
func (e *Engine) overflowStore() (st *tracestore.Store, persistent bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tstore != nil {
		return e.tstore, true, nil
	}
	if e.closed {
		return nil, false, ErrClosed
	}
	if e.scratch == nil {
		parent := e.traceDir
		if parent == "" {
			parent = os.TempDir()
		}
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return nil, false, err
		}
		dir, err := os.MkdirTemp(parent, "memotable-traces-")
		if err != nil {
			return nil, false, err
		}
		if e.scratch, err = tracestore.Open(dir); err != nil {
			_ = os.RemoveAll(dir)
			return nil, false, err
		}
	}
	return e.scratch, false, nil
}
