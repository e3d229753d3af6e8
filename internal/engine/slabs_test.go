package engine

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"memotable/internal/trace"
)

// memoryBytes returns the segments the memory tier holds for key.
func memoryBytes(t *testing.T, e *Engine, key string) [][]byte {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.traces[key]
	if !ok || ent.state != stateMemory {
		t.Fatalf("%q is not in the memory tier", key)
	}
	return ent.data
}

// checkedBudget is a Budget that fails the test the moment any
// operation leaves used+reserved above the limit, and counts the
// reservations it grants.
type checkedBudget struct {
	*Budget
	t       *testing.T
	granted atomic.Int64
}

func (b *checkedBudget) check(op string) {
	b.mu.Lock()
	u, r, l := b.used, b.reserved, b.limit
	b.mu.Unlock()
	if u+r > l {
		b.t.Errorf("after %s: used %d + reserved %d > limit %d", op, u, r, l)
	}
}

func (b *checkedBudget) Reserve(n int64) bool {
	ok := b.Budget.Reserve(n)
	if ok {
		b.granted.Add(1)
	}
	b.check("Reserve")
	return ok
}

func (b *checkedBudget) Commit(reserved, used int64) {
	b.Budget.Commit(reserved, used)
	b.check("Commit")
}

func (b *checkedBudget) Release(reserved, used int64) {
	b.Budget.Release(reserved, used)
	b.check("Release")
}

// TestSpillFailoverAfterSlabsMatchesMemoryBytes: a capture that fails
// over to a store entry after filling several slabs leaves an entry
// whose bytes in front of its 16-byte seal are byte-identical to the
// memory-tier bytes of the same capture under a budget that holds it
// whole — the slab prefix reaches the entry intact and in order.
func TestSpillFailoverAfterSlabsMatchesMemoryBytes(t *testing.T) {
	capture := emitN(200000, 512) // about 1 MB: sixteen frames

	mem := Serial()
	if err := mem.Warm("k", capture); err != nil {
		t.Fatal(err)
	}
	segs := memoryBytes(t, mem, "k")
	if len(segs) < 4 {
		t.Fatalf("a 1 MB capture landed in %d slabs, want the header slab and at least three more", len(segs))
	}
	want := bytes.Join(segs, nil)

	// 400 KB takes the header and six frames — three slabs — before the
	// seventh frame fails over.
	spill := Serial()
	spill.SetTraceDir(t.TempDir())
	acct := &checkedBudget{Budget: spill.Budget().Child(400 << 10), t: t}
	if err := spill.WarmContext(WithBudget(context.Background(), acct), "k", capture); err != nil {
		t.Fatal(err)
	}
	if got := acct.granted.Load(); got < 4 {
		t.Fatalf("failed over after %d writes, want at least the header and three frames", got)
	}
	if s := spill.Stats(); s.SpilledTraces != 1 || s.CachedTraces != 0 {
		t.Fatalf("spilled=%d cached=%d, want 1 and 0", s.SpilledTraces, s.CachedTraces)
	}
	if acct.Used() != 0 || acct.Reserved() != 0 {
		t.Fatalf("spilled capture holds used=%d reserved=%d", acct.Used(), acct.Reserved())
	}
	got, err := os.ReadFile(spillPathOf(t, spill, "k"))
	if err != nil {
		t.Fatal(err)
	}
	const sealLen = 16
	if len(got) != len(want)+sealLen || !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("overflow entry (%d bytes) is not the memory-tier bytes (%d) and a seal", len(got), len(want))
	}
}

// TestCaptureSlabsRespectBudgetAndBoundRetention: concurrent captures of
// many sizes under one budget never push used+reserved over the limit
// at any write, the budget is charged exactly the bytes the memory tier
// holds, and each entry's slabs retain at most one slab of capacity
// beyond the bytes charged for it (none for a one-frame trace).
func TestCaptureSlabsRespectBudgetAndBoundRetention(t *testing.T) {
	e := New(4)
	e.SetTraceDir(t.TempDir())
	acct := &checkedBudget{Budget: e.Budget().Child(3 << 20), t: t}
	ctx := WithBudget(context.Background(), acct)

	sizes := []int{1, 700, 13000, 13200, 40000, 90000, 210000, 400000, 650000}
	var wg sync.WaitGroup
	for i, n := range sizes {
		wg.Add(1)
		go func(key string, n int) {
			defer wg.Done()
			if err := e.WarmContext(ctx, key, emitN(n, 512)); err != nil {
				t.Errorf("%s: %v", key, err)
			}
		}(fmt.Sprint("k", i), n)
	}
	wg.Wait()

	e.mu.Lock()
	defer e.mu.Unlock()
	var held int64
	var inMemory int
	for key, ent := range e.traces {
		if ent.state != stateMemory {
			continue
		}
		inMemory++
		var length, capacity int
		for _, seg := range ent.data {
			length += len(seg)
			capacity += cap(seg)
		}
		held += int64(length)
		if capacity > length+trace.MaxSlabLen {
			t.Errorf("%s: slabs retain %d bytes of capacity for %d charged", key, capacity, length)
		}
		if length < 64<<10 && capacity != length {
			// The header and one short frame each get an exact slab.
			t.Errorf("%s: a one-frame trace of %d bytes retains %d", key, length, capacity)
		}
	}
	if inMemory == 0 || inMemory == len(sizes) {
		t.Fatalf("%d of %d captures in memory: the budget should split them between the tiers", inMemory, len(sizes))
	}
	if acct.Used() != held || e.memBytes != held || acct.Reserved() != 0 {
		t.Fatalf("budget used %d reserved %d, memory tier %d, entries hold %d", acct.Used(), acct.Reserved(), e.memBytes, held)
	}
}
