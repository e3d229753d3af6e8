// Package provenance hash-chains the artifacts of a sharded run into a
// Merkle root, so a coordinator merging worker output can prove the
// cells it reports came from the traces and renderings the worker
// actually produced — and that nothing was substituted, truncated or
// reordered in between.
//
// A Chain is an ordered list of typed leaves. Each leaf binds a kind
// (header, trace fingerprint, result cell, shard root), a name, and the
// SHA-256 of an arbitrary payload; the chain's Root is a Merkle
// reduction over the leaf hashes. Both sides build the chain from the
// same inputs in the same order, so a recomputed root that differs from
// the carried one pins exactly one fact: the carried bytes are not the
// bytes the root was computed over. That mismatch — and every other
// verification failure in the fleet layer — wraps the typed
// ErrProvenance sentinel.
package provenance

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
)

// ErrProvenance is the sentinel every provenance-verification failure
// wraps: a recomputed root that disagrees with the carried one, a chain
// that does not decode, or shard output whose identity fields don't
// match its assignment. Callers classify with errors.Is.
var ErrProvenance = errors.New("provenance verification failed")

// Leaf kinds. The kind participates in the leaf hash (domain
// separation), so a trace fingerprint can never collide with a result
// cell that happens to carry the same name and payload.
const (
	// KindHeader identifies the run: scale, shard assignment, selection.
	KindHeader = "header"
	// KindTrace is the fingerprint of one workload the shard ran.
	KindTrace = "trace"
	// KindCell is one experiment's rendered result bytes (JSON and text).
	KindCell = "cell"
	// KindShard is one shard's root inside the coordinator's combined
	// chain.
	KindShard = "shard"
)

// knownKind reports whether k is one of the leaf kinds above.
func knownKind(k string) bool {
	switch k {
	case KindHeader, KindTrace, KindCell, KindShard:
		return true
	}
	return false
}

// Leaf is one chain entry: a typed, named payload digest.
type Leaf struct {
	Kind string
	Name string
	Sum  [sha256.Size]byte
}

// Chain accumulates leaves in order. The zero value is ready to use.
type Chain struct {
	leaves []Leaf
}

// Decoding limits. A chain describes one shard's run — a handful of
// header/trace/cell leaves — so anything near these bounds is garbage,
// and the fuzz targets lean on them to keep adversarial inputs cheap.
const (
	maxLeaves  = 1 << 16
	maxNameLen = 4096
)

// Add appends a leaf whose Sum is the SHA-256 of payload. Kind must be
// one of the Kind constants; name must be free of the separators the
// encoding uses (tabs and newlines).
func (c *Chain) Add(kind, name string, payload []byte) error {
	if !knownKind(kind) {
		return fmt.Errorf("provenance: unknown leaf kind %q", kind)
	}
	if err := checkName(name); err != nil {
		return err
	}
	if len(c.leaves) >= maxLeaves {
		return fmt.Errorf("provenance: chain exceeds %d leaves", maxLeaves)
	}
	c.leaves = append(c.leaves, Leaf{Kind: kind, Name: name, Sum: sha256.Sum256(payload)})
	return nil
}

// checkName rejects names the line encoding cannot carry.
func checkName(name string) error {
	if len(name) == 0 || len(name) > maxNameLen {
		return fmt.Errorf("provenance: leaf name length %d out of [1,%d]", len(name), maxNameLen)
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '\t' || name[i] == '\n' || name[i] == '\r' {
			return fmt.Errorf("provenance: leaf name %q contains a separator byte", name)
		}
	}
	return nil
}

// Len returns the number of leaves.
func (c *Chain) Len() int { return len(c.leaves) }

// Leaves returns a copy of the chain's leaves, in order.
func (c *Chain) Leaves() []Leaf { return append([]Leaf(nil), c.leaves...) }

// leafHash domain-separates the leaf's identity from interior nodes:
// 0x00, then kind/name/payload-sum joined by unit separators.
func leafHash(l Leaf) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write([]byte(l.Kind))
	h.Write([]byte{0x1f})
	h.Write([]byte(l.Name))
	h.Write([]byte{0x1f})
	h.Write(l.Sum[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Root reduces the leaf hashes to a hex Merkle root. Interior nodes
// hash 0x01 ‖ left ‖ right; an odd node at any level is promoted
// unchanged (no duplication, so a promoted node cannot be confused with
// a pair of identical children). An empty chain has a distinguished
// root so "no leaves" is itself a verifiable statement.
func (c *Chain) Root() string {
	if len(c.leaves) == 0 {
		sum := sha256.Sum256([]byte{0x02})
		return hex.EncodeToString(sum[:])
	}
	level := make([][sha256.Size]byte, len(c.leaves))
	for i, l := range c.leaves {
		level[i] = leafHash(l)
	}
	for len(level) > 1 {
		next := level[: 0 : len(level)/2+1]
		for i := 0; i+1 < len(level); i += 2 {
			h := sha256.New()
			h.Write([]byte{0x01})
			h.Write(level[i][:])
			h.Write(level[i+1][:])
			var sum [sha256.Size]byte
			h.Sum(sum[:0])
			next = append(next, sum)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return hex.EncodeToString(level[0][:])
}

// Encode serializes the chain as one line per leaf —
// "kind\tname\thex(sum)\n" — a format a worker embeds in its manifest
// and Decode round-trips strictly.
func (c *Chain) Encode() []byte {
	var b bytes.Buffer
	for _, l := range c.leaves {
		b.WriteString(l.Kind)
		b.WriteByte('\t')
		b.WriteString(l.Name)
		b.WriteByte('\t')
		b.WriteString(hex.EncodeToString(l.Sum[:]))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// Decode parses an Encode-format chain, rejecting anything the encoder
// cannot produce: unknown kinds, separator bytes in names, malformed
// digests, missing trailing newlines, oversized inputs. It never
// panics on arbitrary input (fuzzed) and satisfies
// Decode(c.Encode()) ≡ c for every valid chain.
func Decode(data []byte) (*Chain, error) {
	if len(data) > 0 && data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("provenance: chain encoding is not newline-terminated")
	}
	c := &Chain{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 256), maxNameLen+128)
	line := 0
	for sc.Scan() {
		line++
		if line > maxLeaves {
			return nil, fmt.Errorf("provenance: chain exceeds %d leaves", maxLeaves)
		}
		parts := bytes.Split(sc.Bytes(), []byte{'\t'})
		if len(parts) != 3 {
			return nil, fmt.Errorf("provenance: line %d: want 3 tab-separated fields, got %d", line, len(parts))
		}
		kind, name := string(parts[0]), string(parts[1])
		if !knownKind(kind) {
			return nil, fmt.Errorf("provenance: line %d: unknown leaf kind %q", line, kind)
		}
		if err := checkName(name); err != nil {
			return nil, fmt.Errorf("provenance: line %d: %w", line, err)
		}
		if len(parts[2]) != hex.EncodedLen(sha256.Size) {
			return nil, fmt.Errorf("provenance: line %d: digest length %d", line, len(parts[2]))
		}
		var l Leaf
		l.Kind, l.Name = kind, name
		if _, err := hex.Decode(l.Sum[:], parts[2]); err != nil {
			return nil, fmt.Errorf("provenance: line %d: bad digest: %v", line, err)
		}
		c.leaves = append(c.leaves, l)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("provenance: %v", err)
	}
	return c, nil
}

// VerifyRoot recomputes the chain's root and compares it with the
// carried one; a mismatch wraps ErrProvenance.
func (c *Chain) VerifyRoot(root string) error {
	if got := c.Root(); got != root {
		return fmt.Errorf("%w: recomputed root %s, carried %s", ErrProvenance, got, root)
	}
	return nil
}

// Combine reduces per-shard roots into the run's combined root: one
// shard leaf per entry, in shard order. An empty root marks a shard
// that produced no verifiable output (crashed past its retry budget, or
// rejected for tampering); it contributes a "degraded" leaf, so the
// combined root also attests to exactly which shards failed.
func Combine(shardRoots []string) string {
	c := &Chain{}
	for i, r := range shardRoots {
		payload := []byte(r)
		if r == "" {
			payload = []byte("degraded")
		}
		// Names are shard ordinals; Add cannot fail on them.
		_ = c.Add(KindShard, strconv.Itoa(i), payload)
	}
	return c.Root()
}
