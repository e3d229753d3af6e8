package provenance

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// buildChain makes a representative chain: a header, a few trace
// fingerprints, a few cells.
func buildChain() *Chain {
	c := &Chain{}
	for _, l := range []struct {
		kind, name, payload string
	}{
		{KindHeader, "run", "tiny|0/4|table1,table5"},
		{KindTrace, "sci|TRFD", "fingerprint-a"},
		{KindTrace, "mm|dec|tiny", "fingerprint-b"},
		{KindCell, "table1", "json-bytes\x00text-bytes"},
		{KindCell, "table5", "other-json\x00other-text"},
	} {
		c.Add(l.kind, l.name, []byte(l.payload))
	}
	return c
}

// TestKnownRoots pins the hex roots of a fixed chain, a combined root
// with a degraded shard, and the empty chain. Shard and combined roots
// are attestations other runs compare against, so any drift in the
// Merkle reduction or the leaf framing must fail here first.
func TestKnownRoots(t *testing.T) {
	var empty Chain
	for name, c := range map[string]struct{ got, want string }{
		"buildChain": {buildChain().Root(), "6242720220e73bbc1c9c08d36a84a52163d33ca1ea0fc37f10ffd8dfed009154"},
		"combine":    {Combine([]string{"aa", "", "cc"}), "9593465082dc74c01941dbc316b04bc56a3b69a95897b0a147c45e1096435046"},
		"empty":      {empty.Root(), "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986"},
	} {
		if c.got != c.want {
			t.Errorf("%s root = %s, want %s", name, c.got, c.want)
		}
	}
}

func TestRootDeterministicAndSensitive(t *testing.T) {
	a, b := buildChain(), buildChain()
	if a.Root() != b.Root() {
		t.Fatalf("same chain, different roots: %s vs %s", a.Root(), b.Root())
	}
	if len(a.Root()) != 64 {
		t.Fatalf("root is not a hex sha256: %q", a.Root())
	}

	// Any payload change moves the root.
	c := buildChain()
	c.Add(KindCell, "extra", []byte("x"))
	if c.Root() == a.Root() {
		t.Fatal("appending a leaf did not change the root")
	}

	// Kind participates in the hash: same name+payload, different kind,
	// different root.
	var k1, k2 Chain
	k1.Add(KindTrace, "n", []byte("p"))
	k2.Add(KindCell, "n", []byte("p"))
	if k1.Root() == k2.Root() {
		t.Fatal("leaf kind is not domain-separated")
	}

	// Order matters: Merkle over a list, not a set.
	var o1, o2 Chain
	for _, n := range []string{"a", "b", "c"} {
		o1.Add(KindTrace, n, []byte(n))
	}
	for _, n := range []string{"c", "b", "a"} {
		o2.Add(KindTrace, n, []byte(n))
	}
	if o1.Root() == o2.Root() {
		t.Fatal("leaf order does not affect the root")
	}
}

func TestEmptyChainRoot(t *testing.T) {
	var c Chain
	if len(c.Root()) != 64 {
		t.Fatalf("empty root: %q", c.Root())
	}
	var one Chain
	one.Add(KindHeader, "h", nil)
	if c.Root() == one.Root() {
		t.Fatal("empty chain shares a root with a one-leaf chain")
	}
}

// TestOddPromotion pins that a promoted odd node is not confused with a
// duplicated pair: chains of 3 and 4 leaves where the 4th duplicates
// the 3rd must not collide.
func TestOddPromotion(t *testing.T) {
	var three, four Chain
	for _, n := range []string{"a", "b", "c"} {
		three.Add(KindTrace, n, []byte(n))
		four.Add(KindTrace, n, []byte(n))
	}
	four.Add(KindTrace, "c", []byte("c"))
	if three.Root() == four.Root() {
		t.Fatal("odd promotion collides with a duplicated leaf")
	}
}

func TestVerifyRoot(t *testing.T) {
	c := buildChain()
	if err := c.VerifyRoot(c.Root()); err != nil {
		t.Fatalf("VerifyRoot(own root): %v", err)
	}
	err := c.VerifyRoot(strings.Repeat("00", 32))
	if err == nil {
		t.Fatal("VerifyRoot accepted a wrong root")
	}
	if !errors.Is(err, ErrProvenance) {
		t.Fatalf("mismatch is not ErrProvenance: %v", err)
	}
}

func TestCombine(t *testing.T) {
	roots := []string{"aa", "bb", "cc", "dd"}
	if Combine(roots) != Combine(roots) {
		t.Fatal("Combine is not deterministic")
	}
	degraded := []string{"aa", "", "cc", "dd"}
	if Combine(roots) == Combine(degraded) {
		t.Fatal("a degraded shard does not change the combined root")
	}
	// Which shard failed matters, not just how many.
	other := []string{"aa", "bb", "", "dd"}
	if Combine(degraded) == Combine(other) {
		t.Fatal("combined root does not identify the failed shard")
	}
	if len(Combine(nil)) != 64 {
		t.Fatal("Combine(nil) is not a root")
	}
}

func TestRootScalesPastOneLevel(t *testing.T) {
	// Exercise several tree depths, including odd counts at every level.
	var prev string
	for n := 1; n <= 33; n++ {
		var c Chain
		for i := 0; i < n; i++ {
			c.Add(KindTrace, fmt.Sprintf("leaf-%d", i), []byte{byte(i)})
		}
		r := c.Root()
		if r == prev {
			t.Fatalf("chains of %d and %d leaves collide", n-1, n)
		}
		prev = r
	}
}
