package report

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// The fleet merge path. A sharded run must print the exact bytes a
// single process would have printed, so the coordinator never
// re-renders a clean cell: workers ship the JSON (and text) they
// rendered themselves, and the coordinator splices those bytes into the
// pinned JSONArray layout. Re-parsing and re-marshaling is not an
// option — the Result JSON encoding is deliberately lossy (cells drop
// their Kind and precision), so only byte splicing preserves identity.

// SpliceJSONArray lays out per-result JSON documents already rendered
// by JSON() as the array `memosim -json` prints: documents comma-joined,
// one per line group, wrapped in brackets. It is the only writer of that
// layout — JSONArray renders through it — so a single-process run and
// a fleet merge cannot drift. The byte layout is pinned: the service
// front-end serves these bytes and CI diffs them against the offline
// CLI, so any change here is a format break, not a cleanup.
func SpliceJSONArray(docs [][]byte) []byte {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, doc := range docs {
		b.Write(doc)
		if i != len(docs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// Provenance is the verification summary of a sharded run: the
// combined Merkle root plus every shard's verification outcome. It
// appears only in fleet output — single-process rendering is untouched.
type Provenance struct {
	// Root is the combined Merkle root over the per-shard roots (failed
	// shards contribute a degraded marker), so the final output attests
	// to exactly which cells are trustworthy.
	Root   string            `json:"root"`
	Shards []ShardProvenance `json:"shards"`
}

// ShardProvenance is one shard's outcome in the provenance block.
type ShardProvenance struct {
	Shard       int      `json:"shard"`
	Experiments []string `json:"experiments"`
	// Root is the shard's own verified Merkle root; empty when the
	// shard produced no verifiable output.
	Root string `json:"root,omitempty"`
	// Verified reports that the coordinator recomputed this shard's
	// root from the carried bytes and it matched.
	Verified bool `json:"verified"`
	// Degraded reports that some of the shard's cells carry errors
	// (worker-side failures, or the whole shard when Verified is false).
	Degraded bool `json:"degraded,omitempty"`
	// Attempts counts worker launches for the shard, retries included.
	Attempts int `json:"attempts,omitempty"`
	// Error flattens the terminal failure of an unverified shard.
	Error string `json:"error,omitempty"`
}

// AppendProvenance appends the provenance block to a rendered JSON
// array as one compact trailing line: `{"provenance":{...}}`. Keeping
// the block out of the array — rather than as an extra element inside
// it — means the array bytes above it stay byte-identical to a
// single-process run, and consumers (or CI) that want the plain array
// can drop the last line.
func AppendProvenance(body []byte, p *Provenance) ([]byte, error) {
	blob, err := json.Marshal(struct {
		Provenance *Provenance `json:"provenance"`
	}{p})
	if err != nil {
		return nil, fmt.Errorf("report: encoding provenance: %w", err)
	}
	out := make([]byte, 0, len(body)+len(blob)+1)
	out = append(out, body...)
	out = append(out, blob...)
	out = append(out, '\n')
	return out, nil
}
