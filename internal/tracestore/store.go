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
// the stream just looks shorter — but such a cut destroys the trailer,
// so the entry reads as a miss. Get and Lookup verify the seal and every
// frame CRC before a byte or a path is handed to the engine; a corrupt
// or truncated entry reads as a miss, and the put that follows the
// re-capture heals it. Lookup serves an entry too large for the caller's
// budget by path: it is verified by streaming, never read whole, and the
// caller replays the trace bytes in front of the seal from disk.
package tracestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

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
// checksums cannot see; it is stripped before the bytes leave Get.
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
// event count, or ErrMiss. The seal trailer and every frame checksum
// are verified before the bytes are returned, so a torn, truncated, or
// bit-flipped entry is reported as a miss rather than replayed.
func (s *Store) Get(fingerprint string) ([]byte, uint64, error) {
	h, err := s.Lookup(fingerprint, nil)
	return h.Data, h.Events, err
}

// Reserver is the slice of a byte budget Lookup charges an entry it
// reads into memory.
type Reserver interface {
	// Reserve claims n bytes, or has no effect and returns false.
	Reserve(n int64) bool
	// Release returns reserved bytes that were never used.
	Release(reserved, used int64)
}

// Hit is a verified store entry. Exactly one of Data and Path is set.
type Hit struct {
	Data   []byte // the trace bytes, when the entry was read into memory
	Path   string // the entry file, when it was not
	Size   int64  // the trace's length: the entry file minus its seal
	Events uint64 // the trace's event count
}

// Lookup is Get under a byte budget. The entry file is opened once and
// one reservation of the trace's length is taken from budget (a nil
// budget admits everything). When the reservation succeeds the entry is
// read into memory and verified in place; Hit.Data holds the bytes and
// the reservation passes to the caller, who commits it. When it fails
// the entry is verified by streaming it through a bounded buffer and
// nothing is held: Hit.Path and Hit.Size name the file and the trace
// bytes that lie before its seal, for the caller to replay from disk.
// Either way the seal trailer and every frame checksum are verified
// before Lookup returns, and a miss holds no reservation.
func (s *Store) Lookup(fingerprint string, budget Reserver) (Hit, error) {
	if err := faults.Inject(faults.StoreRead); err != nil {
		return Hit{}, fmt.Errorf("%w: %w", ErrMiss, err)
	}
	path := s.entryPath(fingerprint)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Hit{}, ErrMiss
		}
		return Hit{}, fmt.Errorf("%w: %w", ErrMiss, err)
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err != nil {
		return Hit{}, fmt.Errorf("%w: %w", ErrMiss, err)
	}
	if fi.Size() < trailerLen {
		return Hit{}, fmt.Errorf("%w: entry shorter than its seal", ErrMiss)
	}
	h := Hit{Size: fi.Size() - trailerLen}
	if budget != nil && !budget.Reserve(h.Size) {
		if h.Events, err = verify(f, h.Size, nil); err != nil {
			return Hit{}, err
		}
		h.Path = path
		return h, nil
	}
	data := make([]byte, fi.Size())
	if _, err = io.ReadFull(f, data); err == nil {
		h.Events, err = verify(f, h.Size, data)
	} else {
		err = fmt.Errorf("%w: %w", ErrMiss, err)
	}
	if err != nil {
		if budget != nil {
			budget.Release(h.Size, 0)
		}
		return Hit{}, err
	}
	h.Data = data[:h.Size]
	return h, nil
}

// verify checks an entry whose trace is size bytes long — its seal
// trailer, the seal's CRC32C over the trace, and every frame — and
// returns the trace's event count. An entry read whole (data) is checked
// where it lies; otherwise the trace is streamed from f through a
// bounded buffer, so an entry of any size is vetted in constant memory.
// Every failure wraps ErrMiss.
func verify(f *os.File, size int64, data []byte) (uint64, error) {
	seal := make([]byte, trailerLen)
	if data != nil {
		seal = data[size:]
	} else if _, err := f.ReadAt(seal, size); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrMiss, err)
	}
	switch {
	case string(seal[:4]) != trailerMagic:
		return 0, fmt.Errorf("%w: entry seal missing", ErrMiss)
	case binary.LittleEndian.Uint64(seal[8:]) != uint64(size):
		return 0, fmt.Errorf("%w: entry truncated", ErrMiss)
	}
	want := binary.LittleEndian.Uint32(seal[4:])
	var events uint64
	var err error
	if data != nil {
		if crc32.Checksum(data[:size], castagnoli) != want {
			return 0, fmt.Errorf("%w: entry seal CRC mismatch", ErrMiss)
		}
		events, err = trace.VerifyBytes(data[:size])
	} else {
		crc := crc32.New(castagnoli)
		events, err = trace.Verify(io.TeeReader(io.NewSectionReader(f, 0, size), crc))
		if err == nil && crc.Sum32() != want {
			return 0, fmt.Errorf("%w: entry seal CRC mismatch", ErrMiss)
		}
	}
	if err != nil {
		return 0, fmt.Errorf("%w: entry corrupt: %w", ErrMiss, err)
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
