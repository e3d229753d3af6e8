package fleet

import (
	"errors"
	"strings"
	"testing"

	"memotable/internal/experiments"
	"memotable/internal/provenance"
	"memotable/internal/report"
)

// sampleResults builds small typed results named after the selection.
func sampleResults(names ...string) []*report.Result {
	out := make([]*report.Result, len(names))
	for i, n := range names {
		t := report.NewTableResult("Sample "+n, "App", "Ratio")
		t.AddRow(report.Str("mm"), report.RatioCell(0.47))
		t.Name = n
		out[i] = t
	}
	return out
}

func sampleManifest(t *testing.T) *Manifest {
	t.Helper()
	names := []string{"table1", "table5"}
	m, err := BuildManifest(1, 4, "tiny", names, sampleResults(names...),
		[]string{"mm|dec|tiny", "sci|TRFD"})
	if err != nil {
		t.Fatalf("BuildManifest: %v", err)
	}
	return m
}

func TestManifestRoundTripAndVerify(t *testing.T) {
	m := sampleManifest(t)
	enc, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeManifest(enc)
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if got.Root != m.Root {
		t.Fatal("round trip changed the provenance")
	}
	if err := Verify(got, 1, 4, "tiny", []string{"table1", "table5"}); err != nil {
		t.Fatalf("Verify(clean): %v", err)
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	names := []string{"table1", "table5"}
	other, err := BuildManifest(0, 4, "tiny", names, sampleResults(names...), nil)
	if err != nil {
		t.Fatal(err)
	}
	otherRoot := other.Root
	if len(otherRoot) != 64 || otherRoot == sampleManifest(t).Root {
		t.Fatalf("other manifest's root %q is not a distinct sha256", otherRoot)
	}
	mutations := map[string]func(m *Manifest){
		"flip result json": func(m *Manifest) {
			m.Results[0].JSON = strings.Replace(m.Results[0].JSON, `"kind"`, `"kund"`, 1)
		},
		"flip result text": func(m *Manifest) { m.Results[1].Text += " " },
		"drop trace":       func(m *Manifest) { m.Traces = m.Traces[:1] },
		"swap traces":      func(m *Manifest) { m.Traces[0], m.Traces[1] = m.Traces[1], m.Traces[0] },
		"zero root":        func(m *Manifest) { m.Root = strings.Repeat("00", 32) },
		// A well-formed root that some other manifest really carries.
		"forged root": func(m *Manifest) { m.Root = otherRoot },
	}
	for name, mutate := range mutations {
		m := sampleManifest(t)
		mutate(m)
		err := Verify(m, 1, 4, "tiny", names)
		if err == nil {
			t.Errorf("%s: Verify accepted tampered manifest", name)
			continue
		}
		if !errors.Is(err, provenance.ErrProvenance) {
			t.Errorf("%s: rejection is not ErrProvenance: %v", name, err)
		}
	}
}

func TestVerifyRejectsStaleAssignment(t *testing.T) {
	m := sampleManifest(t)
	cases := map[string]error{
		"wrong shard":     Verify(m, 2, 4, "tiny", []string{"table1", "table5"}),
		"wrong count":     Verify(m, 1, 8, "tiny", []string{"table1", "table5"}),
		"wrong scale":     Verify(m, 1, 4, "quick", []string{"table1", "table5"}),
		"wrong selection": Verify(m, 1, 4, "tiny", []string{"table5", "table1"}),
	}
	for name, err := range cases {
		if !errors.Is(err, provenance.ErrProvenance) {
			t.Errorf("%s: want ErrProvenance, got %v", name, err)
		}
	}
}

func TestDecodeManifestRejects(t *testing.T) {
	valid, err := sampleManifest(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(m *Manifest)) []byte {
		m := sampleManifest(t)
		mutate(m)
		enc, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	cases := map[string][]byte{
		"not json":       []byte("shard output"),
		"trailing data":  append(append([]byte{}, valid...), valid...),
		"unknown field":  []byte(`{"shard":0,"shards":1,"bogus":1}`),
		"bad assignment": corrupt(func(m *Manifest) { m.Shard = 7 }),
		"bad scale":      corrupt(func(m *Manifest) { m.Scale = "huge" }),
		"no names":       corrupt(func(m *Manifest) { m.Names, m.Results = nil, nil }),
		"count mismatch": corrupt(func(m *Manifest) { m.Results = m.Results[:1] }),
		"name mismatch":  corrupt(func(m *Manifest) { m.Results[0].Name = "other" }),
		"missing result json": []byte(`{"shard":0,"shards":1,"scale":"tiny","names":["t"],"traces":[],` +
			`"results":[{"name":"t","text":""}],"root":"` + strings.Repeat("00", 32) + `"}`),
		"empty trace": corrupt(func(m *Manifest) { m.Traces[0] = "" }),
		"short root":  corrupt(func(m *Manifest) { m.Root = "abc" }),
	}
	for name, in := range cases {
		if _, err := DecodeManifest(in); err == nil {
			t.Errorf("%s: DecodeManifest accepted", name)
		}
	}
}

func TestBuildManifestRejects(t *testing.T) {
	names := []string{"table1"}
	if _, err := BuildManifest(4, 4, "tiny", names, sampleResults(names...), nil); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := BuildManifest(0, 1, "tiny", names, sampleResults("table1", "extra"), nil); err == nil {
		t.Error("result-count mismatch accepted")
	}
	if _, err := BuildManifest(0, 1, "tiny", names, sampleResults("other"), nil); err == nil {
		t.Error("result-name mismatch accepted")
	}
}

func TestParseShard(t *testing.T) {
	if i, n, err := ParseShard("2/4"); err != nil || i != 2 || n != 4 {
		t.Fatalf("ParseShard(2/4) = %d, %d, %v", i, n, err)
	}
	for _, bad := range []string{"", "3", "4/4", "-1/4", "a/b", "1/0", "1/999999"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

func TestShardSelectionDeterministicAndComplete(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	got := experiments.ShardSelection(names, 3)
	want := [][]string{{"a", "d"}, {"b", "e"}, {"c"}}
	if len(got) != len(want) {
		t.Fatalf("ShardSelection returned %d shards", len(got))
	}
	for i := range want {
		if strings.Join(got[i], ",") != strings.Join(want[i], ",") {
			t.Fatalf("shard %d = %v, want %v", i, got[i], want[i])
		}
	}
	if n := experiments.ShardCount(8, 5); n != 5 {
		t.Fatalf("ShardCount(8, 5) = %d", n)
	}
	if n := experiments.ShardCount(3, 5); n != 3 {
		t.Fatalf("ShardCount(3, 5) = %d", n)
	}
}

// FuzzShardManifest drives arbitrary bytes through DecodeManifest;
// whatever decodes must re-encode to a manifest that decodes again
// with identical provenance fields, and Verify must never panic on it.
func FuzzShardManifest(f *testing.F) {
	f.Add([]byte(`{"shard":0,"shards":1}`))
	f.Add([]byte("not a manifest"))
	seed := &Manifest{}
	names := []string{"table1", "table5"}
	if m, err := BuildManifest(1, 4, "tiny", names, sampleResults(names...), []string{"fp"}); err == nil {
		seed = m
	}
	if enc, err := seed.Encode(); err == nil {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		again, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if again.Root != m.Root || again.Degraded != m.Degraded {
			t.Fatal("round trip changed provenance fields")
		}
		// Verify must classify, never panic, whatever the content.
		_ = Verify(m, m.Shard, m.Shards, m.Scale, m.Names)
	})
}
