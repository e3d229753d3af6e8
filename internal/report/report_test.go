package report

import (
	"math"
	"strings"
	"testing"
)

func TestRatioFormatting(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0.47, ".47"},
		{0.5, ".50"},
		{1.0, "1.00"},
		{0, ".00"},
		{math.NaN(), "-"},
		{0.994, ".99"},
	}
	for _, c := range cases {
		if got := Ratio(c.v); got != c.want {
			t.Errorf("Ratio(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestFixedFormatting(t *testing.T) {
	if got := Fixed(3.14159, 2); got != "3.14" {
		t.Errorf("Fixed = %q", got)
	}
	if got := Fixed(math.NaN(), 2); got != "-" {
		t.Errorf("Fixed(NaN) = %q", got)
	}
}

func TestTableLayout(t *testing.T) {
	tab := NewTable("Title", "name", "a", "b")
	tab.AddRow("first", ".47", "1.00")
	tab.AddRow("much-longer-name", "-", ".03")
	out := tab.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + rule + header + rule + 2 rows + rule.
	if len(lines) != 7 {
		t.Fatalf("%d lines, want 7:\n%s", len(lines), out)
	}
	width := len(lines[1])
	for i, l := range lines[1:] {
		if len(l) != width {
			t.Errorf("line %d width %d, want %d", i+1, len(l), width)
		}
	}
	if !strings.Contains(out, "much-longer-name") {
		t.Error("row content missing")
	}
}

func TestTablePanicsOnBadRow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched row accepted")
		}
	}()
	NewTable("t", "a", "b").AddRow("only-one")
}
