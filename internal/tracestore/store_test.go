package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"memotable/internal/faults"
	"memotable/internal/isa"
	"memotable/internal/trace"
)

// testTrace encodes n synthetic events into a valid v2 byte stream.
func testTrace(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriterV2(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		w.Emit(trace.Event{Op: isa.OpFMul, A: uint64(i), B: uint64(i * 3)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := testTrace(t, 100)
	if _, _, err := s.Get("mm|vdiff|mandrill|32"); !errors.Is(err, ErrMiss) {
		t.Fatalf("empty store Get = %v, want ErrMiss", err)
	}
	if err := s.Put("mm|vdiff|mandrill|32", data); err != nil {
		t.Fatal(err)
	}
	got, events, err := s.Get("mm|vdiff|mandrill|32")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stored bytes differ from put bytes")
	}
	if events != 100 {
		t.Fatalf("event count %d, want 100", events)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	// Different fingerprints must not collide.
	if _, _, err := s.Get("mm|vdiff|mandrill|64"); !errors.Is(err, ErrMiss) {
		t.Fatal("different fingerprint served the same entry")
	}
}

// TestWriterStreamsEntry: an entry streamed through Create in chunks
// is byte-identical to a Put of the same bytes, and an aborted writer
// leaves neither an entry nor a temp file. (TestStoreFaultPoints covers
// a failed Write or Commit.)
func TestWriterStreamsEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := testTrace(t, 5000)
	w, err := s.Create("streamed")
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 1000 {
		if _, err := w.Write(data[off:min(off+1000, len(data))]); err != nil {
			t.Fatal(err)
		}
	}
	path, err := w.Commit()
	if err != nil || w.Size() != int64(len(data)) {
		t.Fatalf("Commit = %v after %d of %d bytes", err, w.Size(), len(data))
	}
	if err := s.Put("put", data); err != nil {
		t.Fatal(err)
	}
	a, errA := os.ReadFile(path)
	b, errB := os.ReadFile(s.entryPath("put"))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("streamed entry differs from a Put of the same bytes (%v, %v)", errA, errB)
	}

	aborted, err := s.Create("aborted")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aborted.Write(data); err != nil {
		t.Fatal(err)
	}
	aborted.Abort()
	if _, err := aborted.Commit(); err == nil {
		t.Fatal("Commit after Abort succeeded")
	}
	if tmps, _ := filepath.Glob(filepath.Join(s.Dir(), "t-*"+tempSuffix)); len(tmps) != 0 {
		t.Fatalf("%d temp files left behind", len(tmps))
	}
	if _, _, err := s.Get("aborted"); !errors.Is(err, ErrMiss) {
		t.Fatal("aborted entry is readable")
	}
}

func TestStoreCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fp", testTrace(t, 64)); err != nil {
		t.Fatal(err)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "t-*.mtrc"))
	if len(entries) != 1 {
		t.Fatalf("store holds %d entries, want 1", len(entries))
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("fp"); !errors.Is(err, ErrMiss) {
		t.Fatalf("corrupt entry Get = %v, want ErrMiss", err)
	}
	// A fresh put heals the entry in place.
	if err := s.Put("fp", testTrace(t, 64)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("fp"); err != nil {
		t.Fatalf("healed entry still missing: %v", err)
	}
}

// TestLookupVerifiesMappedEntry reads a multi-frame entry through
// Lookup, which only finds its path, and ReadEntry, which maps the
// entry, verifies it in the mapping and hands use the trace in front of
// the seal with its event count. Damage to the last frame or to the
// seal is caught by ReadEntry, which leaves the file in place: Lookup
// still finds it until a put renames a good entry over it.
func TestLookupVerifiesMappedEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const events = 100000 // several frames, many pages
	data := testTrace(t, events)
	if err := s.Put("fp", data); err != nil {
		t.Fatal(err)
	}
	path, err := s.Lookup("fp")
	if err != nil || path != s.entryPath("fp") {
		t.Fatalf("Lookup = %q, %v", path, err)
	}
	if err := ReadEntry(path, func(trace []byte, n uint64) error {
		if !bytes.Equal(trace, data) || n != events {
			return fmt.Errorf("mapped trace differs from the put bytes (%d events)", n)
		}
		return nil
	}); err != nil {
		t.Fatalf("ReadEntry(%q): %v", path, err)
	}

	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the last frame, which only the frame checks see, then the
	// seal's CRC field, which only the seal check sees.
	for _, off := range []int{len(orig) - trailerLen - 3, len(orig) - trailerLen + 4} {
		raw := append([]byte(nil), orig...)
		raw[off] ^= 0x04
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Lookup("fp"); err != nil {
			t.Fatalf("entry damaged at %d: Lookup = %v before any read", off, err)
		}
		if err := ReadEntry(path, func([]byte, uint64) error { return nil }); !errors.Is(err, ErrMiss) {
			t.Fatalf("entry damaged at %d: ReadEntry = %v, want ErrMiss", off, err)
		}
		if _, err := s.Lookup("fp"); err != nil {
			t.Fatalf("entry damaged at %d: Lookup after the read = %v, want the file", off, err)
		}
	}
	if err := s.Put("fp", data); err != nil {
		t.Fatal(err)
	}
	if err := ReadEntry(path, func([]byte, uint64) error { return nil }); err != nil {
		t.Fatalf("entry healed by a put: ReadEntry = %v", err)
	}
}

// TestLookupEntryTruncatedAfterStat truncates an entry between a read's
// stat and its verify, where the mapping's size is already fixed: the
// verify's read past the new end faults, the fault comes back as an
// error instead of killing the process, and use never runs.
// Truncations that leave the seal's page in place and ones that take it
// are both covered.
func TestLookupEntryTruncatedAfterStat(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := testTrace(t, 100000)
	for _, keep := range []int64{0, 1, int64(len(data)) / 2} {
		if err := s.Put("fp", data); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(s.entryPath("fp"))
		if err != nil {
			t.Fatal(err)
		}
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(f.Name(), keep); err != nil {
			t.Fatal(err)
		}
		used := false
		err = readVerified(f, fi.Size(), false, func([]byte, uint64) error { used = true; return nil })
		_ = f.Close()
		if !errors.Is(err, errFault) || used {
			t.Fatalf("entry truncated to %d after its stat: read = %v (use ran: %v), want a fault", keep, err, used)
		}
	}
}

// TestReadEntryRejectsCorruptEntry damages an entry three ways — a
// flipped frame byte under a seal recomputed to match, which only the
// frame checks see, a flipped seal byte, and a cut at a frame boundary,
// which the frames alone cannot see. Each time ReadEntry and Get report
// the damage as a miss and as a corrupt trace and never run use, and
// neither read changes the store: the damaged file is still there, byte
// for byte, for a put to rename over.
func TestReadEntryRejectsCorruptEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := testTrace(t, 100000) // several frames
	firstFrame := 6 + 16 + int(binary.LittleEndian.Uint32(data[6+4:]))
	path := s.entryPath("fp")
	damage := map[string]func(raw []byte) []byte{
		"frame byte": func(raw []byte) []byte {
			raw[firstFrame-1] ^= 0x01
			body := raw[:len(raw)-trailerLen]
			binary.LittleEndian.PutUint32(raw[len(body)+4:], crc32.Checksum(body, castagnoli))
			return raw
		},
		"seal byte":      func(raw []byte) []byte { raw[len(raw)-1] ^= 0x01; return raw },
		"frame boundary": func(raw []byte) []byte { return raw[:firstFrame] },
	}
	for name, spoil := range damage {
		if err := s.Put("fp", data); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := spoil(raw)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		used := false
		err = ReadEntry(path, func([]byte, uint64) error { used = true; return nil })
		if !errors.Is(err, ErrMiss) || !errors.Is(err, trace.ErrBadTrace) || used {
			t.Fatalf("%s: ReadEntry = %v (use ran: %v), want ErrMiss and ErrBadTrace", name, err, used)
		}
		if _, _, err := s.Get("fp"); !errors.Is(err, ErrMiss) || !errors.Is(err, trace.ErrBadTrace) {
			t.Fatalf("%s: Get = %v, want ErrMiss and ErrBadTrace", name, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, bad) {
			t.Fatalf("%s: the reads changed the damaged file (%v)", name, err)
		}
	}
}

// TestReadEntryFaultsAreErrors truncates an entry while a ReadEntry use
// is reading it: the next read past the new end comes back as an error,
// a panic of use's own propagates unchanged, and the store.read
// injection point fires on Lookup's stat and on every ReadEntry open.
func TestReadEntryFaultsAreErrors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := testTrace(t, 100000)
	if err := s.Put("fp", data); err != nil {
		t.Fatal(err)
	}
	path, err := s.Lookup("fp")
	if err != nil {
		t.Fatal(err)
	}
	var sum byte
	err = ReadEntry(path, func(trace []byte, _ uint64) error {
		if err := os.Truncate(path, 0); err != nil {
			return err
		}
		for _, b := range trace {
			sum += b
		}
		return nil
	})
	if !errors.Is(err, errFault) {
		t.Fatalf("read past a truncation: %v, want errFault", err)
	}

	if err := s.Put("fp", data); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("use's panic came back as %v", r)
			}
		}()
		_ = ReadEntry(path, func([]byte, uint64) error { panic("boom") })
		t.Fatal("use's panic was swallowed")
	}()

	plan, err := faults.Parse(faults.StoreRead)
	if err != nil {
		t.Fatal(err)
	}
	faults.Activate(plan)
	defer faults.Activate(nil)
	if _, err := s.Lookup("fp"); !errors.Is(err, ErrMiss) || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Lookup under a store.read fault: %v", err)
	}
	used := false
	if err := ReadEntry(path, func([]byte, uint64) error { used = true; return nil }); !errors.Is(err, faults.ErrInjected) || used {
		t.Fatalf("ReadEntry under a store.read fault: %v (use ran: %v)", err, used)
	}
	if plan.Fired() != 2 {
		t.Fatalf("store.read fired %d times over one Lookup and one ReadEntry, want 2", plan.Fired())
	}
}

func TestStoreKeyProperties(t *testing.T) {
	k := Key("mm|vdiff|mandrill|32")
	if len(k) != 32 || strings.ToLower(k) != k {
		t.Fatalf("key %q not 32 lowercase hex chars", k)
	}
	if Key("a") == Key("b") {
		t.Fatal("distinct fingerprints share a key")
	}
	if Key("a") != Key("a") {
		t.Fatal("key not deterministic")
	}
}

func TestOpenSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep", testTrace(t, 8)); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "t-deadbeef.mtrc"+tempSuffix)
	fresh := filepath.Join(dir, "t-cafef00d.mtrc"+tempSuffix)
	for _, p := range []string{orphan, fresh} {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-orphanGrace - time.Minute)
	if err := os.Chtimes(orphan, stale, stale); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphan temp file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("Open swept a temp file modified within the grace period")
	}
	if _, _, err := s.Get("keep"); err != nil {
		t.Fatal("sealed entry swept alongside orphans")
	}
}

// TestOpenLeavesLiveWriter: a process opening a store while another
// process streams an entry into it must not sweep that entry's temp
// file — the writer's Commit still succeeds and the entry reads back.
func TestOpenLeavesLiveWriter(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := testTrace(t, 20000)
	w, err := writer.Create("fp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data[len(data)/2:]); err != nil {
		t.Fatalf("Write after a concurrent Open: %v", err)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatalf("Commit after a concurrent Open: %v", err)
	}
	if got, _, err := other.Get("fp"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("entry committed past a concurrent Open: %v", err)
	}
}

func TestStoreFaultPoints(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := testTrace(t, 8)
	if err := s.Put("fp", data); err != nil {
		t.Fatal(err)
	}

	activate := func(spec string) {
		t.Helper()
		plan, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		faults.Activate(plan)
	}
	defer faults.Activate(nil)

	activate("seed=1;store.read:count=1")
	if _, _, err := s.Get("fp"); !errors.Is(err, ErrMiss) || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("injected read fault Get = %v, want injected miss", err)
	}
	if _, _, err := s.Get("fp"); err != nil {
		t.Fatalf("Get after exhausted fault budget: %v", err)
	}

	for i, spec := range []string{"seed=1;store.write:count=1", "seed=1;store.rename:count=1"} {
		fp := fmt.Sprintf("fp-write-%d", i)
		activate(spec)
		if err := s.Put(fp, data); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("%s: Put = %v, want injected fault", spec, err)
		}
		// A failed put leaves no temp garbage and no entry.
		tmps, _ := filepath.Glob(filepath.Join(s.Dir(), "t-*"+tempSuffix))
		if len(tmps) != 0 {
			t.Fatalf("%s: %d temp files left behind", spec, len(tmps))
		}
		if _, _, err := s.Get(fp); !errors.Is(err, ErrMiss) {
			t.Fatalf("%s: torn put produced a readable entry", spec)
		}
		faults.Activate(nil)
		// The put succeeds once the fault clears.
		if err := s.Put(fp, data); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
}

// TestPutSegmentsWithoutCopy: Put writes a trace's segments to the entry
// file where they lie. Publishing an 8 MiB trace held as 1 MiB segments
// allocates well under 1 MiB — no joined or copied trace — as does
// publishing it from contiguous bytes, and the two entries are
// byte-identical.
func TestPutSegmentsWithoutCopy(t *testing.T) {
	var encoded bytes.Buffer
	w, err := trace.NewWriterV2(&encoded, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; encoded.Len() < 8<<20; i++ {
		w.Emit(trace.Event{Op: isa.OpFMul, A: uint64(i) * 0x9e3779b97f4a7c15, B: uint64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	flat := encoded.Bytes()
	var segs [][]byte
	for rest := flat; len(rest) > 0; {
		n := min(len(rest), 1<<20)
		segs, rest = append(segs, rest[:n]), rest[n:]
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	put := func(key string, segs ...[]byte) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := s.Put(key, segs...); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("Put of a %d-byte trace in %d segments allocated %d bytes", len(flat), len(segs), alloc)
		}
	}
	put("segments", segs...)
	put("flat", flat)
	got, events, err := s.Get("segments")
	if err != nil || events != w.Count() || !bytes.Equal(got, flat) {
		t.Fatalf("Get = %d bytes, %d events, %v; want the %d put bytes, %d events", len(got), events, err, len(flat), w.Count())
	}
	a, errA := os.ReadFile(s.entryPath("segments"))
	b, errB := os.ReadFile(s.entryPath("flat"))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("entry put from segments differs from one put from contiguous bytes (%v, %v)", errA, errB)
	}
}
