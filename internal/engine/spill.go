package engine

import (
	"os"
	"path/filepath"
	"strings"

	"memotable/internal/faults"
	"memotable/internal/trace"
)

// spillTempSuffix marks a spill file that has not been sealed yet. A
// capture streams into "trace-*.mtrc.tmp" and the file is renamed to
// "trace-*.mtrc" only after a successful sync-and-close, so a reader can
// never observe a torn file under the durable name and a process death
// mid-capture leaves only suffixed garbage for sweepSpillOrphans.
const spillTempSuffix = ".tmp"

// sweepSpillOrphans removes spill temp files a dead process left behind.
// Sealed spill files (no temp suffix) are never touched. The dir must
// not be shared with a concurrently spilling process.
func sweepSpillOrphans(dir string) {
	if dir == "" {
		return
	}
	orphans, err := filepath.Glob(filepath.Join(dir, "trace-*.mtrc"+spillTempSuffix))
	if err != nil {
		return
	}
	for _, p := range orphans {
		_ = os.Remove(p)
	}
}

// captureArm is the io.Writer a capture encodes into. It lands the v2
// byte stream in whichever tier has room, deciding mid-stream:
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
//     a spill temp file: the slabs — header plus whole frames, because
//     WriterV2 writes frame-atomically — are written to the file and
//     freed, the reservation is released, and the rest of the stream
//     goes straight to disk. seal later renames the completed file to
//     its durable name.
//   - With no spill directory set, the fail-over write fails instead,
//     which WriterV2 surfaces at Flush and store records as a decline.
//
// The spill.create, spill.write and spill.rename fault-injection points
// fire on this path; store treats their errors as transient spill I/O
// and retries the capture under the engine's retry policy.
type captureArm struct {
	e        *Engine
	acct     BudgetAccountant // the budget this capture reserves against
	mem      bool             // memory tier still viable
	slabs    trace.SlabWriter
	reserved int64 // bytes this arm holds reserved in acct
	f        *os.File
	path     string
}

// Write implements io.Writer for the capture encoder.
func (a *captureArm) Write(p []byte) (int, error) {
	if a.mem {
		if a.reserve(int64(len(p))) {
			return a.slabs.Write(p)
		}
		a.mem = false
		a.release()
		if err := a.openSpill(); err != nil {
			return 0, err
		}
		a.slabs = trace.SlabWriter{} // prefix is on disk now; free it
	}
	if err := faults.Inject(faults.SpillWrite); err != nil {
		return 0, err
	}
	return a.f.Write(p)
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

// openSpill creates the spill temp file and seeds it with the stream
// prefix held in the slabs. It fails with errCacheFull when the tier is
// disabled.
func (a *captureArm) openSpill() error {
	e := a.e
	e.mu.Lock()
	dir := e.spillDir
	e.mu.Unlock()
	if dir == "" {
		return errCacheFull
	}
	if err := faults.Inject(faults.SpillCreate); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, "trace-*.mtrc"+spillTempSuffix)
	if err != nil {
		return err
	}
	for _, seg := range a.slabs.Segments() {
		if _, err := f.Write(seg); err != nil {
			_ = f.Close()
			_ = os.Remove(f.Name())
			return err
		}
	}
	a.f, a.path = f, f.Name()
	return nil
}

// seal makes a completed spill file durable and readable: contents
// synced, handle closed, and the temp name atomically renamed to the
// durable one. On failure the temp file is removed.
func (a *captureArm) seal() error {
	err := a.f.Sync()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = faults.Inject(faults.SpillRename)
	}
	if err == nil {
		final := strings.TrimSuffix(a.path, spillTempSuffix)
		if err = os.Rename(a.path, final); err == nil {
			a.path = final
		}
	}
	if err != nil {
		_ = os.Remove(a.path)
	}
	a.f = nil
	return err
}

// discard abandons the capture: reservation released, any partial spill
// file removed.
func (a *captureArm) discard() {
	a.release()
	if a.f != nil {
		_ = a.f.Close()
		_ = os.Remove(a.path)
		a.f = nil
		a.path = ""
	}
}
