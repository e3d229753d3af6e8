package report

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: output diverged from golden\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestTableGolden pins the paper-layout table rendering byte for byte:
// title, rules, column sizing, left-aligned name column, right-aligned
// value columns, '-' placeholders.
func TestTableGolden(t *testing.T) {
	tab := NewTable("Table X: golden layout sample",
		"application", "int mult", "fp mult", "fp div")
	tab.AddRow("vdiff", Ratio(0.47), Ratio(math.NaN()), Ratio(1.0))
	tab.AddRow("a-much-longer-name", Ratio(0.055), Ratio(0.5), Fixed(12.345, 2))
	tab.AddRow("x", "0", "-", Fixed(math.NaN(), 3))
	checkGolden(t, "table", tab.String())
}

// TestUntitledTableGolden pins the title-less variant (no heading line).
func TestUntitledTableGolden(t *testing.T) {
	tab := NewTable("", "k", "v")
	tab.AddRow("a", "1")
	checkGolden(t, "table_untitled", tab.String())
}
