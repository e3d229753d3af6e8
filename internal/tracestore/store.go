// Package tracestore is the persistent, content-addressed home of
// settled operand traces. A settled trace is a pure function of its
// workload fingerprint and the trace-format generation — the per-capture
// address spaces in internal/imaging guarantee the first half, the
// format version pins the second — so a trace captured by one process is
// valid in every other process on the machine. The store turns that
// purity into wall-clock: an engine consults it before executing any
// workload, and a warm store makes a whole experiment matrix replay-only.
//
// On disk an entry is the raw v2 trace byte stream under the name
//
//	t-<key>.v<version>.mtrc
//
// where key is a 128-bit content address derived from the fingerprint
// and version (see Key). The version appears in both the hash and the
// file name: a build with a newer trace format simply never looks at the
// old generation's names, so stale entries are invisible — not deleted
// from under a concurrent reader still running the old build.
//
// Every write goes through one streaming entry writer (Create): the
// stream lands in a "t-*.mtrc.tmp" file that is sealed, synced, closed
// and atomically renamed to its durable name on Commit, so a reader can
// never observe a torn entry and a process death mid-write leaves only
// suffixed garbage, which Open sweeps once it has sat untouched for a
// grace period. Put is that writer over bytes already in memory; an
// engine capture that overflows its memory budget streams into a writer
// directly. Concurrent writers of the same key are benign: captures are
// deterministic, so both write the same bytes and the last rename wins.
//
// The trace bytes are followed on disk by a 16-byte seal trailer: a
// magic, a CRC32C over the whole body, and the body length. Frame
// checksums alone cannot catch a file truncated at a frame boundary —
// the stream just looks shorter — but such a cut destroys the trailer.
// Every read verifies the seal and every frame CRC before a byte
// reaches its caller, and this package holds the only such verifier. A
// corrupt or truncated entry reads as a miss, and a read never changes
// the store: the caller that finds an entry corrupt re-captures it, and
// that capture's put renames a good entry over the damaged one.
//
// Reads map the entry file read-only for one use and unmap it when that
// use ends (ReadEntry), and the verify runs in that same mapping: one
// open, one mapping and one check per read. Lookup only stats the file
// and hands back its path, so a store hit holds no heap memory — the
// entry's durable home is the file, and its pages are the kernel's page
// cache. Get alone copies an entry into memory. A file truncated under a
// mapping raises SIGBUS on the next read past its end; the read runs
// with debug.SetPanicOnFault, and the fault comes back as an error.
package tracestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"

	"memotable/internal/faults"
	"memotable/internal/trace"
)

// tempSuffix marks an entry that has not been sealed yet.
const tempSuffix = ".tmp"

// orphanGrace is how long a temp file must sit unmodified before Open
// sweeps it. A store directory is shared by concurrent processes — a
// fleet retry starts a fresh worker mid-run — and a live writer touches
// its temp file with every frame it streams, so only a writer that died
// (or stalled this long, and then merely fails its Commit) loses it.
const orphanGrace = time.Hour

// The seal trailer closing every entry: magic, CRC32C of the body, body
// length. Its only job is detecting truncation and damage that frame
// checksums cannot see; it is stripped before the bytes reach a reader.
const (
	trailerMagic = "MTSE"
	trailerLen   = 16
)

// castagnoli is the CRC32C table behind every seal checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrMiss reports that a fingerprint has no usable entry: absent,
// torn, or failing CRC verification. All three read identically to the
// engine — capture, then Put to heal.
var ErrMiss = errors.New("tracestore: miss")

// Store is a directory of content-addressed trace entries. All methods
// are safe for concurrent use by any number of goroutines and processes.
type Store struct {
	dir string
}

// Open prepares dir as a trace store, creating it if needed and
// sweeping temp files a dead process left behind: those not modified
// for orphanGrace, so a writer streaming into the same directory from
// another process keeps its file. Sealed entries are never touched by
// the sweep.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("tracestore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	orphans, err := filepath.Glob(filepath.Join(dir, "t-*.mtrc"+tempSuffix))
	if err == nil {
		for _, p := range orphans {
			if fi, err := os.Stat(p); err == nil && time.Since(fi.ModTime()) > orphanGrace {
				_ = os.Remove(p)
			}
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Key returns the content address of a workload fingerprint under the
// current trace-format generation: the first 128 bits of
// sha256("memotable-trace\x00v<version>\x00" + fingerprint), hex-encoded.
// The domain prefix keeps store keys disjoint from any other sha256 use,
// and folding the version in means a format bump re-keys every entry.
func Key(fingerprint string) string {
	h := sha256.New()
	fmt.Fprintf(h, "memotable-trace\x00v%d\x00%s", trace.VersionV2, fingerprint)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// entryPath returns the durable file name for a fingerprint.
func (s *Store) entryPath(fingerprint string) string {
	return filepath.Join(s.dir, fmt.Sprintf("t-%s.v%d.mtrc", Key(fingerprint), trace.VersionV2))
}

// Get returns the verified trace bytes for a fingerprint and their
// event count, or ErrMiss. The entry is copied out of its mapping into
// memory, and the seal trailer and every frame checksum of that copy
// are verified before it is returned, so a torn, truncated, or
// bit-flipped entry is reported as a miss rather than replayed.
func (s *Store) Get(fingerprint string) (body []byte, events uint64, err error) {
	err = readEntry(s.entryPath(fingerprint), true, func(trace []byte, n uint64) error {
		body, events = trace, n
		return nil
	})
	if err != nil && !errors.Is(err, ErrMiss) {
		return nil, 0, fmt.Errorf("%w: %w", ErrMiss, err)
	}
	return body, events, err
}

// Lookup returns the path of a fingerprint's entry, or ErrMiss when the
// file is absent or shorter than a seal. It only stats the file:
// ReadEntry verifies the entry in the mapping that replays it.
func (s *Store) Lookup(fingerprint string) (string, error) {
	if err := faults.Inject(faults.StoreRead); err != nil {
		return "", fmt.Errorf("%w: %w", ErrMiss, err)
	}
	path := s.entryPath(fingerprint)
	fi, err := os.Stat(path)
	if err == nil && fi.Size() < trailerLen {
		err = errors.New("entry shorter than its seal")
	}
	if err != nil {
		return "", fmt.Errorf("%w: %w", ErrMiss, err)
	}
	return path, nil
}

// ReadEntry maps an entry file read-only, verifies it there — the seal
// trailer, the seal's CRC32C over the trace in front of it, and every
// frame — and runs use over the verified trace and its event count. The
// mapping lasts exactly as long as use: use must not keep the bytes.
// The store.read injection point fires before the file is opened.
//
// A verification failure wraps both ErrMiss and trace.ErrBadTrace, and
// use does not run. The file is left as it is: Lookup keeps finding it
// until a put renames a good entry over it. A fault reading the mapping
// (the file was truncated under it) stops the verify or use and comes
// back as an error.
func ReadEntry(path string, use func(trace []byte, events uint64) error) error {
	return readEntry(path, false, use)
}

// readEntry opens an entry file for Get (copyOut) and ReadEntry.
func readEntry(path string, copyOut bool, use func([]byte, uint64) error) error {
	if err := faults.Inject(faults.StoreRead); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	return readVerified(f, fi.Size(), copyOut, use)
}

// errCorrupt is the class of every verification failure: a miss to the
// store's callers, and damage, not I/O, to the engine's.
var errCorrupt = fmt.Errorf("%w: %w", ErrMiss, trace.ErrBadTrace)

// errFault reports a memory fault reading a mapped entry: the file
// shrank under its mapping.
var errFault = errors.New("tracestore: entry file truncated under its mapping")

// readVerified maps the open entry file f, n bytes long, read-only,
// verifies it and runs use over its trace on this goroutine, and unmaps
// it before it returns (see ReadEntry). With copyOut the entry is first
// copied out of the mapping, and the copy is what is verified and
// handed to use. Reading a page past the end of a file that shrank
// after it was mapped raises SIGBUS; for the duration of the read that
// fault panics instead of killing the process (debug.SetPanicOnFault),
// and a fault inside the mapping comes back as errFault. Any other
// panic — a fault elsewhere included — propagates unchanged.
func readVerified(f *os.File, n int64, copyOut bool, use func([]byte, uint64) error) (err error) {
	if n < trailerLen {
		return fmt.Errorf("%w: entry shorter than its seal", errCorrupt)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("tracestore: map %s: %w", f.Name(), err)
	}
	defer func() { _ = syscall.Munmap(data) }()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(interface{ Addr() uintptr })
			base := uintptr(unsafe.Pointer(&data[0]))
			if !ok || fault.Addr() < base || fault.Addr()-base >= uintptr(n) {
				panic(r)
			}
			err = fmt.Errorf("%w (offset %d)", errFault, fault.Addr()-base)
		}
	}()
	entry := data
	if copyOut {
		entry = bytes.Clone(data)
	}
	events, err := verify(entry)
	if err != nil {
		return err
	}
	return use(entry[:n-trailerLen], events)
}

// verify checks a whole entry — its seal trailer, the seal's CRC32C
// over the trace in front of it, and every frame — and returns the
// trace's event count. Every failure wraps errCorrupt.
func verify(entry []byte) (uint64, error) {
	size := len(entry) - trailerLen
	seal := entry[size:]
	switch {
	case string(seal[:4]) != trailerMagic:
		return 0, fmt.Errorf("%w: entry seal missing", errCorrupt)
	case binary.LittleEndian.Uint64(seal[8:]) != uint64(size):
		return 0, fmt.Errorf("%w: entry truncated", errCorrupt)
	case crc32.Checksum(entry[:size], castagnoli) != binary.LittleEndian.Uint32(seal[4:]):
		return 0, fmt.Errorf("%w: entry seal CRC mismatch", errCorrupt)
	}
	events, err := trace.VerifyBytes(entry[:size])
	if err != nil {
		return 0, fmt.Errorf("%w: entry frames: %w", errCorrupt, err)
	}
	return events, nil
}

// Put installs a trace for a fingerprint from its in-memory bytes: one
// buffer, or the frame-aligned segments an engine capture holds. The
// segments are written to the entry file where they lie, without being
// joined or copied.
func (s *Store) Put(fingerprint string, segs ...[]byte) error {
	w, err := s.Create(fingerprint)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if _, err := w.Write(seg); err != nil {
			return err
		}
	}
	_, err = w.Commit()
	return err
}

// Writer streams one entry into the store: Write appends trace bytes to
// the entry's temp file, Commit seals it under the fingerprint's durable
// name, and Abort abandons it. A failed Write or Commit aborts the entry
// itself, so on any failure the temp file is gone and the store is
// unchanged. A Writer is not safe for concurrent use.
type Writer struct {
	path string   // the entry's durable name
	f    *os.File // the temp file; nil once committed or aborted
	crc  hash.Hash32
	n    int64
	err  error // sticky: why the writer accepts no more bytes
}

// errDone is the sticky error of a committed or aborted Writer.
var errDone = errors.New("tracestore: entry already committed or aborted")

// Create opens a streaming writer for a fingerprint's entry.
func (s *Store) Create(fingerprint string) (*Writer, error) {
	f, err := os.CreateTemp(s.dir, "t-*.mtrc"+tempSuffix)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	return &Writer{path: s.entryPath(fingerprint), f: f, crc: crc32.New(castagnoli)}, nil
}

// Write implements io.Writer. The store.write injection point fires
// before every write.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if err := faults.Inject(faults.StoreWrite); err != nil {
		return 0, w.fail(err)
	}
	n, err := w.f.Write(p)
	_, _ = w.crc.Write(p[:n]) // hash writes cannot fail
	w.n += int64(n)
	if err != nil {
		return n, w.fail(err)
	}
	return n, nil
}

// Size returns the trace bytes written so far.
func (w *Writer) Size() int64 { return w.n }

// Commit appends the seal trailer, syncs and closes the temp file, and
// atomically renames it to the fingerprint's durable name, which it
// returns. The store.rename injection point fires before the rename.
func (w *Writer) Commit() (string, error) {
	if w.err != nil {
		return "", w.err
	}
	var seal [trailerLen]byte
	copy(seal[:4], trailerMagic)
	binary.LittleEndian.PutUint32(seal[4:], w.crc.Sum32())
	binary.LittleEndian.PutUint64(seal[8:], uint64(w.n))
	if _, err := w.f.Write(seal[:]); err != nil {
		return "", w.fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return "", w.fail(err)
	}
	if err := w.f.Close(); err != nil {
		return "", w.fail(err)
	}
	if err := faults.Inject(faults.StoreRename); err != nil {
		return "", w.fail(err)
	}
	if err := os.Rename(w.f.Name(), w.path); err != nil {
		return "", w.fail(err)
	}
	w.f, w.err = nil, errDone
	return w.path, nil
}

// Abort abandons the entry: the temp file is closed and removed. It is
// a no-op once the entry is committed or has failed, so it can be
// deferred.
func (w *Writer) Abort() {
	if w.f != nil {
		_ = w.f.Close() // a second Close after Commit's is harmless
		_ = os.Remove(w.f.Name())
		w.f = nil
	}
	if w.err == nil {
		w.err = errDone
	}
}

// fail aborts the entry and records err as the reason.
func (w *Writer) fail(err error) error {
	w.Abort()
	w.err = fmt.Errorf("tracestore: %w", err)
	return w.err
}

// Len counts the sealed entries of the current format generation.
func (s *Store) Len() (int, error) {
	entries, err := filepath.Glob(filepath.Join(s.dir, fmt.Sprintf("t-*.v%d.mtrc", trace.VersionV2)))
	if err != nil {
		return 0, fmt.Errorf("tracestore: %w", err)
	}
	return len(entries), nil
}

// Bytes returns the on-disk size of the current format generation's
// entries (seal trailers included). An entry that vanishes mid-walk — a
// concurrent writer renaming over it — is simply skipped.
func (s *Store) Bytes() (int64, error) {
	entries, err := filepath.Glob(filepath.Join(s.dir, fmt.Sprintf("t-*.v%d.mtrc", trace.VersionV2)))
	if err != nil {
		return 0, fmt.Errorf("tracestore: %w", err)
	}
	var total int64
	for _, p := range entries {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total, nil
}
