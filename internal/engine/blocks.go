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
// v1/v2 bytes (in place, for the memory tier) or its spill file into
// immutable []trace.Event blocks exactly once; every later replay of the
// key walks the shared blocks read-only and feeds sinks whole blocks at
// a time.
//
// Block memory is charged against the same byte budget as the encoded
// tier (decoded events cost bytesPerEvent each), so a tight budget simply
// leaves the tier cold and replays fall back to the byte decoder; and the
// tier is spill-aware: a disk-tier entry's blocks are decoded straight
// from its CRC-framed spill file, after which replays never touch the
// disk again.

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

// blocksFor returns key's decoded blocks, building them on first use.
// It returns nil (and no error) when the tier cannot serve: another
// goroutine is mid-decode, or the byte budget has no room — callers then
// fall back to the byte decoder. A decode failure of a disk-tier entry
// is returned as an error so the caller can invalidate the spill file
// and retry; nothing has been emitted.
func (e *Engine) blocksFor(acct BudgetAccountant, key string, snap entrySnapshot) ([]traceBlock, error) {
	e.mu.Lock()
	ent := e.traces[key]
	if ent == nil || ent.state != snap.state || ent.path != snap.path {
		e.mu.Unlock()
		return nil, nil
	}
	if ent.blocks != nil {
		blocks := ent.blocks
		e.mu.Unlock()
		e.decodeHits.Add(1)
		return blocks, nil
	}
	cost := int64(snap.events) * bytesPerEvent
	if ent.blockBusy || !acct.Reserve(cost) {
		e.mu.Unlock()
		return nil, nil
	}
	ent.blockBusy = true
	e.mu.Unlock()

	// The block.decode injection point: an injected error makes the tier
	// unavailable for this replay (the caller falls back to the byte
	// path); an injected panic unwinds to the replay's panic isolation.
	if ferr := faults.Inject(faults.BlockDecode); ferr != nil {
		e.mu.Lock()
		acct.Release(cost, 0)
		ent.blockBusy = false
		e.mu.Unlock()
		return nil, nil
	}

	blocks, err := e.decodeBlocksRetrying(snap)

	e.mu.Lock()
	ent.blockBusy = false
	if err != nil {
		acct.Release(cost, 0)
		e.mu.Unlock()
		return nil, err
	}
	// Publish only if the entry still holds the capture we decoded; a
	// concurrent invalidation means the slot is being re-captured and
	// these blocks must not shadow it.
	if ent.state == snap.state && ent.path == snap.path && ent.blocks == nil {
		acct.Commit(cost, cost)
		ent.blocks = blocks
		ent.blockBytes = cost
		ent.blockAcct = acct
		e.blockBytes += cost
	} else {
		acct.Release(cost, 0)
	}
	e.mu.Unlock()
	return blocks, nil
}

// decodeBlocksRetrying decodes with the engine's spill-read retry
// policy: a disk-tier decode that fails for a reason other than
// corruption (an injected spill.read fault, a vanished file) is retried
// with backoff before the caller gives up and invalidates the file.
func (e *Engine) decodeBlocksRetrying(snap entrySnapshot) ([]traceBlock, error) {
	if snap.state != stateDisk {
		return decodeBlocks(snap)
	}
	var blocks []traceBlock
	err := e.withSpillRetry(func() error {
		var derr error
		blocks, derr = decodeBlocks(snap)
		return derr
	})
	return blocks, err
}

// decodeBlocks decodes a settled entry's whole stream — memory bytes, a
// spill file or a store entry's trace bytes — into owned blocks. For
// disk-tier entries the frame checksums are verified by the decode
// itself, so a torn or corrupt file fails here before any event could
// reach a sink.
func decodeBlocks(snap entrySnapshot) ([]traceBlock, error) {
	r, done, err := openSnapshot(snap)
	if err != nil {
		return nil, err
	}
	defer done()
	blocks := make([]traceBlock, 0, snap.events/blockLen+1)
	var decoded uint64
	for decoded < snap.events {
		n := snap.events - decoded
		if n > blockLen {
			n = blockLen
		}
		batch, err := r.ReadBatch(make([]trace.Event, 0, n))
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, traceBlock{events: batch, mask: batchMask(batch)})
		decoded += uint64(len(batch))
	}
	if decoded != snap.events {
		return nil, fmt.Errorf("decoded %d of %d events", decoded, snap.events)
	}
	if _, err := r.ReadBatch(make([]trace.Event, 0, 1)); err != io.EOF {
		return nil, fmt.Errorf("stream continues past %d declared events", snap.events)
	}
	return blocks, nil
}
