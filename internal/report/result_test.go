package report

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCellTextFormats(t *testing.T) {
	cases := []struct {
		cell Cell
		want string
	}{
		{Str("vdiff"), "vdiff"},
		{Int(39), "39"},
		{Int(-1), "-1"},
		{RatioCell(0.47), ".47"},
		{RatioCell(1.0), "1.00"},
		{RatioCell(math.NaN()), "-"},
		{FixedCell(12.345, 2), "12.35"},
		{FixedCell(math.NaN(), 3), "-"},
		{FloatCell(2.5, 3), "2.500"},
		{FloatCell(math.NaN(), 2), "NaN"},
	}
	for _, c := range cases {
		if got := c.cell.Text(); got != c.want {
			t.Errorf("cell %+v renders %q, want %q", c.cell, got, c.want)
		}
	}
}

func TestCellJSONEncodesNaNAsNull(t *testing.T) {
	cases := []struct {
		cell Cell
		want string
	}{
		{Str("x"), `"x"`},
		{Int(7), `7`},
		{RatioCell(0.5), `0.5`},
		{RatioCell(math.NaN()), `null`},
		{FixedCell(math.Inf(1), 2), `null`},
		{FloatCell(1.25, 2), `1.25`},
	}
	for _, c := range cases {
		buf, err := json.Marshal(c.cell)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf) != c.want {
			t.Errorf("cell %+v encodes %s, want %s", c.cell, buf, c.want)
		}
	}
}

// sampleResult builds a group exercising every node kind and cell kind.
func sampleResult() *Result {
	tab := NewTableResult("Table X: typed sample", "application", "fp mult", "fp div", "events")
	tab.AddRow(Str("vdiff"), RatioCell(0.47), RatioCell(math.NaN()), Int(1024))
	tab.AddRow(Str("vcost"), FixedCell(1.5, 2), FloatCell(0.125, 3), Int(0))
	tab.Name = "sample-table"

	sc := NewScalar("events-per-sec", FloatCell(4.75, 2), "M/s")
	return NewGroup("sample", tab, sc)
}

// TestResultTextGolden pins the typed renderer's text byte for byte —
// the same bytes the string-built Table emits.
func TestResultTextGolden(t *testing.T) {
	checkGolden(t, "result_text", Text(sampleResult()))
}

// TestResultJSONGolden pins the JSON encoding byte for byte; refresh with
// -update like the text goldens.
func TestResultJSONGolden(t *testing.T) {
	buf, err := JSON(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "result_json", string(buf)+"\n")
}

func TestResultJSONIsValidAndNaNFree(t *testing.T) {
	buf, err := JSON(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatalf("output is not plain JSON: %v", err)
	}
	if strings.Contains(string(buf), "NaN") {
		t.Error("NaN leaked into JSON output")
	}
	if decoded["kind"] != "group" {
		t.Errorf("kind = %v", decoded["kind"])
	}
}

func TestTextMatchesLegacyTable(t *testing.T) {
	r := NewTableResult("T", "k", "v")
	r.AddRow(Str("a"), RatioCell(0.5))
	legacy := NewTable("T", "k", "v")
	legacy.AddRow("a", Ratio(0.5))
	if Text(r) != legacy.String() {
		t.Fatalf("typed table diverged from legacy rendering:\n%s\nvs\n%s", Text(r), legacy.String())
	}
}

func TestAddRowPanicsOnColumnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched row")
		}
	}()
	r := NewTableResult("T", "a", "b")
	r.AddRow(Str("only-one"))
}

func TestGroupAndScalarText(t *testing.T) {
	g := NewGroup("g",
		NewScalar("x", Int(3), "cycles"),
		NewScalar("y", Int(4), ""))
	got := Text(g)
	if got != "x = 3 cycles\n\ny = 4\n" {
		t.Fatalf("group text %q", got)
	}
	if Text(nil) != "" {
		t.Fatal("nil result must render empty")
	}
}

func TestErrorsSectionInTextAndJSON(t *testing.T) {
	r := NewTableResult("T", "k", "v")
	r.AddRow(Str("a"), Int(1))
	clean := Text(r)
	if strings.Contains(clean, "errors:") {
		t.Fatalf("clean result rendered an errors section:\n%s", clean)
	}

	r.Errs = []RunError{
		{Workload: "mm|vspatial|lenna@0", Stage: "sink", Message: "sink panicked"},
		{Workload: "sci|TRFD", Stage: "capture", Message: "injected fault"},
	}
	got := Text(r)
	if !strings.HasPrefix(got, clean) {
		t.Fatalf("errors section altered the regular rendering:\n%s", got)
	}
	for _, want := range []string{
		"errors:",
		"  mm|vspatial|lenna@0 [sink]: sink panicked\n",
		"  sci|TRFD [capture]: injected fault\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("text rendering %q missing %q", got, want)
		}
	}

	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Errors []RunError `json:"errors"`
	}
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Errors) != 2 || decoded.Errors[0].Stage != "sink" {
		t.Fatalf("JSON errors round-trip = %+v", decoded.Errors)
	}
}

func TestDegradedResultRendering(t *testing.T) {
	r := NewDegradedResult("table7", []RunError{{Workload: "w", Stage: "replay", Message: "boom"}})
	got := Text(r)
	if !strings.HasPrefix(got, "errors:\n") || !strings.Contains(got, "w [replay]: boom") {
		t.Fatalf("degraded result text %q", got)
	}
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	s := string(buf)
	if !strings.Contains(s, `"errors"`) || !strings.Contains(s, `"name":"table7"`) {
		t.Fatalf("degraded result JSON %s", s)
	}
}
