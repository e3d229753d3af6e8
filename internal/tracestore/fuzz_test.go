package tracestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"memotable/internal/isa"
	"memotable/internal/trace"
)

// FuzzStoreKey feeds hostile fingerprints through the content-address
// function and the full Put/Get path. Whatever the fingerprint — path
// separators, NULs, dots, the empty string — the key must stay a fixed
// 32-char hex token (so the entry file name is always flat and safe) and
// the entry must round-trip under exactly its own fingerprint.
func FuzzStoreKey(f *testing.F) {
	f.Add("mm|vdiff|mandrill|32")
	f.Add("sci|vpenta")
	f.Add("")
	f.Add("../../etc/passwd")
	f.Add("a\x00b")
	f.Add("t-0123456789abcdef0123456789abcdef.v2.mtrc")

	dir := f.TempDir()
	data := testTrace(f, 4)

	f.Fuzz(func(t *testing.T, fingerprint string) {
		key := Key(fingerprint)
		if len(key) != 32 {
			t.Fatalf("Key(%q) = %q: not 32 chars", fingerprint, key)
		}
		for _, c := range key {
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				t.Fatalf("Key(%q) = %q: non-hex rune %q", fingerprint, key, c)
			}
		}
		if key != Key(fingerprint) {
			t.Fatalf("Key(%q) unstable", fingerprint)
		}

		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(fingerprint, data); err != nil {
			t.Fatalf("Put(%q): %v", fingerprint, err)
		}
		got, events, err := s.Get(fingerprint)
		if err != nil || !bytes.Equal(got, data) || events != 4 {
			t.Fatalf("Get(%q) after Put: %v, %d events", fingerprint, err, events)
		}
		// The entry must live directly in the store dir under its hex
		// name — a fingerprint must never steer the path elsewhere.
		if _, err := os.Stat(filepath.Join(dir, "t-"+key+".v2.mtrc")); err != nil {
			t.Fatalf("entry for %q not at its content address: %v", fingerprint, err)
		}
	})
}

// FuzzStoreEntryCorruption installs a valid entry, lets the fuzzer
// vandalize it at an arbitrary offset — bit flip or truncation — and
// reads it back through both readers: Get (copied into memory, verified
// there) and Lookup plus ReadEntry (verified in its mapping). Neither
// may panic or hand back corrupt data, and both must reach one verdict:
// ErrMiss from each, or the original trace and its event count from
// each.
func FuzzStoreEntryCorruption(f *testing.F) {
	f.Add(uint32(0), byte(0x01), false)
	f.Add(uint32(4), byte(0xff), false)
	f.Add(uint32(40), byte(0x80), true)
	f.Add(uint32(7), byte(0x00), true)

	f.Fuzz(func(t *testing.T, offset uint32, flip byte, truncate bool) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := trace.NewWriterV2(&buf, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			w.Emit(trace.Event{Op: isa.Op(i) % isa.NumOps, A: uint64(i), B: uint64(i) * 7})
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		orig := buf.Bytes()
		if err := s.Put("victim", orig); err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(dir, "t-"+Key("victim")+".v2.mtrc")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pos := int(offset) % len(raw)
		if truncate {
			raw = raw[:pos]
		} else {
			raw[pos] ^= flip
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		got, events, getErr := s.Get("victim")
		var mapped []byte
		var mappedEvents uint64
		hit, readErr := s.Lookup("victim")
		if readErr == nil {
			readErr = ReadEntry(hit, func(trace []byte, n uint64) error {
				mapped, mappedEvents = bytes.Clone(trace), n
				return nil
			})
		}
		for _, err := range []error{getErr, readErr} {
			if err != nil && !errors.Is(err, ErrMiss) {
				t.Fatalf("corrupt entry error %v does not wrap ErrMiss", err)
			}
		}
		if (getErr == nil) != (readErr == nil) {
			t.Fatalf("readers disagree (offset %d, flip %#x, truncate %v): Get %v, Lookup+ReadEntry %v",
				pos, flip, truncate, getErr, readErr)
		}
		if getErr != nil {
			return
		}
		// A no-op corruption (flip == 0 at a surviving offset) may still
		// verify — then every reader must return exactly the original.
		if !bytes.Equal(got, orig) || events != 32 ||
			hit != path || !bytes.Equal(mapped, orig) || mappedEvents != 32 {
			t.Fatalf("a reader returned corrupt data as valid (offset %d, flip %#x, truncate %v)",
				pos, flip, truncate)
		}
	})
}
