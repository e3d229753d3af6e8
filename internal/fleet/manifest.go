// Package fleet shards a memosim selection across supervised worker
// processes and merges their typed results back into output
// byte-identical to a single-process run.
//
// The unit of distribution is the registry experiment name: the
// coordinator deals the resolved selection into round-robin shards
// (experiments.ShardSelection), launches one `memosim -worker -shard
// i/N` subprocess per shard, and collects from each a Manifest — the
// shard's rendered result bytes plus a provenance chain over the trace
// fingerprints of the workloads it ran and the exact bytes it rendered. The
// coordinator recomputes every chain from the carried bytes before
// trusting them; output that fails recomputation is rejected with
// provenance.ErrProvenance and never merged.
//
// Supervision is bounded and isolating: each shard attempt runs under
// its own timeout, failures (crash, hang, torn output, injected
// fleet.* faults) are retried with full-jitter backoff on a fresh
// worker, and a shard that exhausts its budget degrades only its own
// experiments' cells — the rest of the run is unaffected and the
// combined Merkle root attests to exactly which shards those were.
package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"memotable/internal/experiments"
	"memotable/internal/provenance"
	"memotable/internal/report"
)

// maxShards bounds the shard counts a manifest may claim; anything
// larger is garbage (the CLI clamps real shard counts to the selection
// size, and the registry holds far fewer experiments than this).
const maxShards = 4096

// ShardResult is one experiment's rendered output as the worker
// produced it: the JSON document report.JSON emitted and the text
// report.Text emitted. The JSON document travels as a string — not a
// RawMessage — because the coordinator splices the worker's exact
// bytes into the merged array, and embedding the indented document as
// a nested JSON value would compact it in transit; a string field
// round-trips it byte-for-byte.
type ShardResult struct {
	Name string `json:"name"`
	JSON string `json:"json"`
	Text string `json:"text"`
}

// Manifest is a worker's entire output: its identity (which shard of
// which split, at what scale, over which experiments), the trace
// fingerprints of the workloads its engine ran, its rendered results,
// and the provenance chain binding all of the above under a Merkle
// root.
type Manifest struct {
	Shard    int           `json:"shard"`
	Shards   int           `json:"shards"`
	Scale    string        `json:"scale"`
	Names    []string      `json:"names"`
	Traces   []string      `json:"traces"`
	Results  []ShardResult `json:"results"`
	Degraded bool          `json:"degraded,omitempty"`
	Chain    string        `json:"chain"`
	Root     string        `json:"root"`
}

// BuildManifest renders a worker's results and chains them: one header
// leaf (scale, assignment, selection), one leaf per settled trace
// fingerprint (sorted), one leaf per experiment cell (JSON and text
// bytes, length-framed). Degraded is set when any result carries
// errors — the worker's exit code mirrors it.
func BuildManifest(shard, shards int, scale string, names []string, results []*report.Result, traces []string) (*Manifest, error) {
	if shard < 0 || shards < 1 || shard >= shards || shards > maxShards {
		return nil, fmt.Errorf("fleet: shard assignment %d/%d out of range", shard, shards)
	}
	if len(results) != len(names) {
		return nil, fmt.Errorf("fleet: %d results for %d experiments", len(results), len(names))
	}
	m := &Manifest{
		Shard:  shard,
		Shards: shards,
		Scale:  scale,
		Names:  names,
		Traces: traces,
	}
	chain := &provenance.Chain{}
	if err := chain.Add(provenance.KindHeader, "run", headerPayload(scale, shard, shards, names)); err != nil {
		return nil, err
	}
	for _, fp := range traces {
		if err := chain.Add(provenance.KindTrace, fp, []byte(fp)); err != nil {
			return nil, fmt.Errorf("fleet: trace fingerprint %q: %w", fp, err)
		}
	}
	for i, r := range results {
		if r.Name != names[i] {
			return nil, fmt.Errorf("fleet: result %d is %q, selection says %q", i, r.Name, names[i])
		}
		doc, err := report.JSON(r)
		if err != nil {
			return nil, fmt.Errorf("fleet: rendering %s: %w", r.Name, err)
		}
		text := report.Text(r)
		if err := chain.Add(provenance.KindCell, r.Name, cellPayload(doc, text)); err != nil {
			return nil, err
		}
		m.Results = append(m.Results, ShardResult{Name: r.Name, JSON: string(doc), Text: text})
		if len(r.Errs) > 0 {
			m.Degraded = true
		}
	}
	m.Chain = string(chain.Encode())
	m.Root = chain.Root()
	return m, nil
}

// headerPayload is the chain's identity leaf: a shard cannot be
// replayed into a different assignment, scale or selection without
// moving the root.
func headerPayload(scale string, shard, shards int, names []string) []byte {
	return []byte(scale + "|" + strconv.Itoa(shard) + "/" + strconv.Itoa(shards) + "|" + strings.Join(names, ","))
}

// cellPayload length-frames an experiment's JSON and text renderings
// into one leaf payload, so neither can borrow bytes from the other.
func cellPayload(doc []byte, text string) []byte {
	buf := make([]byte, 0, 16+len(doc)+len(text))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(doc)))
	buf = append(buf, doc...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(text)))
	buf = append(buf, text...)
	return buf
}

// Encode serializes the manifest as the single JSON document a worker
// writes to stdout.
func (m *Manifest) Encode() ([]byte, error) {
	buf, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding manifest: %w", err)
	}
	return append(buf, '\n'), nil
}

// DecodeManifest parses and structurally validates worker output. It
// accepts exactly what a worker emits: a well-formed assignment, a
// non-empty selection with one result per name in order, valid JSON
// documents, clean fingerprints, a decodable chain and a hex root.
// Structural garbage fails here with a plain error; bytes that are
// structurally fine but don't match their chain are caught later by
// Verify, with ErrProvenance. It never panics on arbitrary input
// (fuzzed).
func DecodeManifest(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	m := &Manifest{}
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("fleet: manifest does not decode: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("fleet: trailing data after manifest")
	}
	if m.Shard < 0 || m.Shards < 1 || m.Shard >= m.Shards || m.Shards > maxShards {
		return nil, fmt.Errorf("fleet: manifest shard assignment %d/%d out of range", m.Shard, m.Shards)
	}
	if _, err := experiments.ParseScale(m.Scale); err != nil || m.Scale == "" {
		return nil, fmt.Errorf("fleet: manifest scale %q invalid", m.Scale)
	}
	if len(m.Names) == 0 {
		return nil, fmt.Errorf("fleet: manifest has no experiments")
	}
	if len(m.Results) != len(m.Names) {
		return nil, fmt.Errorf("fleet: manifest has %d results for %d experiments", len(m.Results), len(m.Names))
	}
	for i, name := range m.Names {
		if name == "" {
			return nil, fmt.Errorf("fleet: manifest name %d is empty", i)
		}
		if m.Results[i].Name != name {
			return nil, fmt.Errorf("fleet: manifest result %d is %q, selection says %q", i, m.Results[i].Name, name)
		}
		if !json.Valid([]byte(m.Results[i].JSON)) {
			return nil, fmt.Errorf("fleet: manifest result %q carries invalid JSON", name)
		}
	}
	for i, fp := range m.Traces {
		if fp == "" {
			return nil, fmt.Errorf("fleet: manifest trace fingerprint %d is empty", i)
		}
	}
	if _, err := provenance.Decode([]byte(m.Chain)); err != nil {
		return nil, fmt.Errorf("fleet: manifest chain: %w", err)
	}
	if len(m.Root) != 64 {
		return nil, fmt.Errorf("fleet: manifest root %q is not a sha256", m.Root)
	}
	return m, nil
}

// Verify checks a decoded manifest against its shard assignment and
// recomputes its provenance from the carried bytes. Every failure —
// identity fields that don't match the assignment (stale or
// misdirected output), a chain that differs from the recomputed one,
// or a root that doesn't match — wraps provenance.ErrProvenance.
func Verify(m *Manifest, shard, shards int, scale string, names []string) error {
	if m.Shard != shard || m.Shards != shards {
		return fmt.Errorf("%w: manifest claims shard %d/%d, assignment is %d/%d",
			provenance.ErrProvenance, m.Shard, m.Shards, shard, shards)
	}
	if m.Scale != scale {
		return fmt.Errorf("%w: manifest scale %q, assignment is %q", provenance.ErrProvenance, m.Scale, scale)
	}
	if len(m.Names) != len(names) {
		return fmt.Errorf("%w: manifest covers %d experiments, assignment has %d",
			provenance.ErrProvenance, len(m.Names), len(names))
	}
	for i, n := range names {
		if m.Names[i] != n {
			return fmt.Errorf("%w: manifest experiment %d is %q, assignment says %q",
				provenance.ErrProvenance, i, m.Names[i], n)
		}
	}

	// Recompute the chain from the carried bytes — identity fields,
	// fingerprints, rendered cells — exactly as the worker built it.
	chain := &provenance.Chain{}
	if err := chain.Add(provenance.KindHeader, "run", headerPayload(m.Scale, m.Shard, m.Shards, m.Names)); err != nil {
		return fmt.Errorf("%w: %v", provenance.ErrProvenance, err)
	}
	for _, fp := range m.Traces {
		if err := chain.Add(provenance.KindTrace, fp, []byte(fp)); err != nil {
			return fmt.Errorf("%w: %v", provenance.ErrProvenance, err)
		}
	}
	for _, r := range m.Results {
		if err := chain.Add(provenance.KindCell, r.Name, cellPayload([]byte(r.JSON), r.Text)); err != nil {
			return fmt.Errorf("%w: %v", provenance.ErrProvenance, err)
		}
	}
	if enc := string(chain.Encode()); enc != m.Chain {
		return fmt.Errorf("%w: carried chain differs from the chain of the carried bytes", provenance.ErrProvenance)
	}
	return chain.VerifyRoot(m.Root)
}

// ParseShard parses the -shard CLI spelling "i/N".
func ParseShard(spec string) (shard, shards int, err error) {
	i, n, ok := strings.Cut(spec, "/")
	if ok {
		shard, err = strconv.Atoi(i)
		if err == nil {
			shards, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil || shard < 0 || shards < 1 || shard >= shards || shards > maxShards {
		return 0, 0, fmt.Errorf("fleet: bad shard spec %q (want i/N with 0 <= i < N)", spec)
	}
	return shard, shards, nil
}
