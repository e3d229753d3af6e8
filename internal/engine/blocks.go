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
// straight from its CRC-framed store entry, after which replays never
// touch the disk again.

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

// blocksFor returns key's decoded blocks, building them when the entry
// has already served a replay. It returns nil (and no error) when the
// tier does not serve: this is the entry's first replay, another
// goroutine is mid-decode, or the byte budget has no room — callers then
// fall back to the byte decoder. A decode failure of a disk-tier entry
// is returned as an error so the caller can invalidate the entry and
// retry; nothing has been emitted.
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
	if !ent.served {
		ent.served = true
		e.mu.Unlock()
		return nil, nil
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

	blocks, err := e.decodeBlocks(snap)

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

// decodeBlocks decodes a settled entry's whole stream — memory bytes or
// a disk-tier entry, mapped for the decode — into owned blocks. For
// disk-tier entries the frame checksums are verified by the decode
// itself, so a torn or corrupt file fails here before any event could
// reach a sink.
func (e *Engine) decodeBlocks(snap entrySnapshot) ([]traceBlock, error) {
	blocks := make([]traceBlock, 0, snap.events/blockLen+1)
	err := e.readSnapshot(snap, func(segs [][]byte) error {
		r, err := trace.NewSegmentReader(segs)
		if err != nil {
			return err
		}
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
				return err
			}
			blocks = append(blocks, traceBlock{events: batch, mask: batchMask(batch)})
			decoded += uint64(len(batch))
		}
		if decoded != snap.events {
			return fmt.Errorf("decoded %d of %d events", decoded, snap.events)
		}
		if _, err := r.ReadBatch(make([]trace.Event, 0, 1)); err != io.EOF {
			return fmt.Errorf("stream continues past %d declared events", snap.events)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return blocks, nil
}
