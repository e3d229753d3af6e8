package engine

import (
	"fmt"
	"io"

	"memotable/internal/faults"
	"memotable/internal/trace"
)

// The decoded-block cache tier. Encoded trace bytes answer "run this
// workload's stream again" without re-executing the workload, but every
// replay still pays a full varint decode. A key replayed more than once
// — by several passes on one engine, or by several requests to the
// service — would pay that decode each time. This tier decodes a key's
// v1/v2 bytes (in place, for the memory tier) or its store entry into
// immutable []trace.Event blocks once; every later replay of the key
// walks the shared blocks read-only and feeds sinks whole blocks at a
// time.
//
// Blocks are built on a key's second replay, not its first: the first
// replay of an entry decodes its bytes batch by batch, and only an
// entry that has already served a replay — one that is being reused —
// is decoded into blocks, which the third and later replays hit. A
// pass that replays every key once (a CLI run) therefore holds no
// blocks at all.
//
// Block memory is charged against the same byte budget as the encoded
// tier (decoded events cost bytesPerEvent each), so a tight budget simply
// leaves the tier cold and replays fall back to the byte decoder; and the
// tier covers the disk tier too: a disk-tier entry's blocks are decoded
// inside the read that verified its store entry, after which replays
// never touch the disk again. A build and a byte replay take the same
// one read (replaySettled), so a budget with no room for the blocks
// costs no second read.

// bytesPerEvent is the in-memory cost of one decoded trace.Event: Op
// (uint8) padded to 8 bytes plus two uint64 operands.
const bytesPerEvent = 24

// blockLen is the event capacity of one decoded block: 8192 events
// (192 KiB) keeps a block L2-resident while amortizing per-block
// dispatch across the sinks. The byte path decodes in batches of the
// same length.
const blockLen = 8192

// traceBlock is one immutable decoded block plus the union mask of its
// events' classes, which lets a fused replay skip sinks that consume
// none of them.
type traceBlock struct {
	events []trace.Event
	mask   trace.OpMask
}

// blocksFor looks up key's decoded blocks for a replay of snap. It
// returns them when the entry has them. Otherwise claim is the entry
// when this replay should decode them — it has already served a replay,
// and no other goroutine is decoding it — and nil when the tier does
// not serve: this is the entry's first replay, or another goroutine is
// mid-decode. The caller builds the blocks inside its read of the
// stream (buildBlocks) and releases a claim with unclaim.
func (e *Engine) blocksFor(key string, snap entrySnapshot) (blocks []traceBlock, claim *traceEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.traces[key]
	switch {
	case ent == nil || ent.state != snap.state || ent.path != snap.path:
		return nil, nil
	case ent.blocks != nil:
		e.decodeHits.Add(1)
		return ent.blocks, nil
	case !ent.served:
		ent.served = true
		return nil, nil
	case ent.blockBusy:
		return nil, nil
	}
	ent.blockBusy = true
	return nil, ent
}

// unclaim releases a build claim blocksFor granted.
func (e *Engine) unclaim(ent *traceEntry) {
	e.mu.Lock()
	ent.blockBusy = false
	e.mu.Unlock()
}

// buildBlocks decodes a claimed entry's verified stream — segs, holding
// events events — into blocks, reserving their bytes in acct once the
// count is known, and publishes them. It returns nil and no error when
// the budget has no room or the block.decode injection point declines;
// the caller then delivers from the bytes. A decode failure is
// returned; nothing has been emitted.
func (e *Engine) buildBlocks(acct BudgetAccountant, ent *traceEntry, snap entrySnapshot, segs [][]byte, events uint64) (blocks []traceBlock, err error) {
	cost := int64(events) * bytesPerEvent
	if !acct.Reserve(cost) {
		return nil, nil
	}
	// Publish or release under the cache lock however the decode ends: a
	// fault on a mapped store entry unwinds it as a panic. Publish only
	// if the entry still holds the stream we decoded; a concurrent
	// invalidation means the slot is being re-captured and these blocks
	// must not shadow it.
	defer func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if blocks != nil && ent.state == snap.state && ent.path == snap.path && ent.blocks == nil {
			acct.Commit(cost, cost)
			ent.blocks = blocks
			ent.blockBytes = cost
			ent.blockAcct = acct
			e.blockBytes += cost
		} else {
			acct.Release(cost, 0)
		}
	}()
	// The block.decode injection point: an injected error makes the tier
	// unavailable for this replay (the caller falls back to the byte
	// path); an injected panic unwinds to the replay's panic isolation.
	if faults.Inject(faults.BlockDecode) != nil {
		return nil, nil
	}
	return decodeBlocks(segs, events)
}

// decodeBlocks decodes a whole stream of events events, held as
// segments, into owned blocks. The decode checks every frame, and the
// stream must hold exactly events events.
func decodeBlocks(segs [][]byte, events uint64) ([]traceBlock, error) {
	r, err := trace.NewSegmentReader(segs)
	if err != nil {
		return nil, err
	}
	blocks := make([]traceBlock, 0, events/blockLen+1)
	var decoded uint64
	for decoded < events {
		batch, err := r.ReadBatch(make([]trace.Event, 0, min(events-decoded, blockLen)))
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, traceBlock{events: batch, mask: batchMask(batch)})
		decoded += uint64(len(batch))
	}
	if decoded != events {
		return nil, fmt.Errorf("decoded %d of %d events", decoded, events)
	}
	if _, err := r.ReadBatch(make([]trace.Event, 0, 1)); err != io.EOF {
		return nil, fmt.Errorf("stream continues past %d declared events", events)
	}
	return blocks, nil
}
