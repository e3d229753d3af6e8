package report

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// spliceFixture builds a mixed-kind selection exercising every node
// type the renderer emits.
func spliceFixture() []*Result {
	tab := NewTableResult("Hit ratios", "App", "Ratio")
	tab.AddRow(Str("mm"), RatioCell(0.47))
	tab.AddRow(Str("dec"), RatioCell(math.NaN()))
	tab.Name = "table1"

	deg := NewDegradedResult("table9", []RunError{{Workload: "mm|dec", Stage: "capture", Message: "boom"}})

	grp := NewGroup("group1", tab, NewScalar("speedup", FloatCell(1.5, 2), "x"))
	return []*Result{tab, deg, grp}
}

// TestSpliceMatchesJSONArray pins the contract the fleet merge path
// stands on: splicing individually rendered documents produces the
// exact bytes JSONArray renders from the Result values, in the pinned
// array layout. If the layout changes shape, this fails before any
// distributed run can drift from the single-process output.
func TestSpliceMatchesJSONArray(t *testing.T) {
	results := spliceFixture()
	want, err := JSONArray(results)
	if err != nil {
		t.Fatalf("JSONArray: %v", err)
	}
	docs := make([][]byte, len(results))
	for i, r := range results {
		if docs[i], err = JSON(r); err != nil {
			t.Fatalf("JSON(%s): %v", r.Name, err)
		}
	}
	got := SpliceJSONArray(docs)
	if !bytes.Equal(got, want) {
		t.Fatalf("splice differs from direct render:\n--- splice\n%s\n--- direct\n%s", got, want)
	}
	layout := "[\n" + string(bytes.Join(docs, []byte(",\n"))) + "\n]\n"
	if string(got) != layout {
		t.Fatalf("array layout changed:\n%s", got)
	}

	// Subsets splice identically too — the per-shard case.
	want, err = JSONArray(results[:1])
	if err != nil {
		t.Fatal(err)
	}
	if got := SpliceJSONArray(docs[:1]); !bytes.Equal(got, want) {
		t.Fatal("single-document splice differs from direct render")
	}
	if got := SpliceJSONArray(nil); string(got) != "[\n]\n" {
		t.Fatalf("empty splice = %q", got)
	}
}

func TestAppendProvenance(t *testing.T) {
	body, err := JSONArray(spliceFixture())
	if err != nil {
		t.Fatal(err)
	}
	p := &Provenance{
		Root: strings.Repeat("ab", 32),
		Shards: []ShardProvenance{
			{Shard: 0, Experiments: []string{"table1"}, Root: strings.Repeat("cd", 32), Verified: true, Attempts: 1},
			{Shard: 1, Experiments: []string{"figure4"}, Degraded: true, Attempts: 3, Error: "worker exited 137"},
		},
	}
	out, err := AppendProvenance(body, p)
	if err != nil {
		t.Fatalf("AppendProvenance: %v", err)
	}
	if !bytes.HasPrefix(out, body) {
		t.Fatal("provenance block rewrote the array bytes")
	}
	tail := out[len(body):]
	if n := bytes.Count(tail, []byte{'\n'}); n != 1 || tail[len(tail)-1] != '\n' {
		t.Fatalf("provenance block is not one trailing line: %q", tail)
	}
	var decoded struct {
		Provenance *Provenance `json:"provenance"`
	}
	if err := json.Unmarshal(tail, &decoded); err != nil {
		t.Fatalf("provenance line does not decode: %v", err)
	}
	if decoded.Provenance.Root != p.Root || len(decoded.Provenance.Shards) != 2 {
		t.Fatal("provenance round trip lost fields")
	}
	if !decoded.Provenance.Shards[0].Verified || decoded.Provenance.Shards[1].Verified {
		t.Fatal("verified flags did not round-trip")
	}
}
