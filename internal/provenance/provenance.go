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
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
)

// ErrProvenance is the sentinel every provenance-verification failure
// wraps: a recomputed root that disagrees with the carried one, or
// shard output whose identity fields don't match its assignment.
// Callers classify with errors.Is.
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

// leaf is one chain entry: a typed, named payload digest.
type leaf struct {
	kind, name string
	sum        [sha256.Size]byte
}

// Chain accumulates leaves in order. The zero value is ready to use.
type Chain struct {
	leaves []leaf
}

// Add appends a leaf whose digest is the SHA-256 of payload. Kind is one
// of the Kind constants.
func (c *Chain) Add(kind, name string, payload []byte) {
	c.leaves = append(c.leaves, leaf{kind: kind, name: name, sum: sha256.Sum256(payload)})
}

// leafHash domain-separates the leaf's identity from interior nodes:
// 0x00, then kind/name/payload-sum joined by unit separators.
func leafHash(l leaf) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write([]byte(l.kind))
	h.Write([]byte{0x1f})
	h.Write([]byte(l.name))
	h.Write([]byte{0x1f})
	h.Write(l.sum[:])
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
		c.Add(KindShard, strconv.Itoa(i), payload)
	}
	return c.Root()
}
