package memotable_test

import (
	"bytes"
	"strings"
	"testing"

	"memotable"
	"memotable/internal/isa"
)

func TestFacadeTableAndUnit(t *testing.T) {
	table := memotable.NewTable(memotable.FDiv, memotable.Paper32x4())
	unit := memotable.NewUnit(table, memotable.NonTrivialOnly, nil)
	if res, out := unit.FDiv(10, 4); res != 2.5 || out != memotable.Miss {
		t.Fatalf("first division: %g %v", res, out)
	}
	if res, out := unit.FDiv(10, 4); res != 2.5 || out != memotable.Hit {
		t.Fatalf("second division: %g %v", res, out)
	}
	if _, out := unit.FDiv(10, 1); out != memotable.Trivial {
		t.Fatal("x/1 not detected as trivial")
	}
	if table.Stats().Hits != 1 {
		t.Fatal("stats not visible through the facade")
	}
}

func TestFacadeCaptureReplay(t *testing.T) {
	var buf bytes.Buffer
	n, err := memotable.Capture(&buf, false, func(p *memotable.Probe) {
		for i := 0; i < 50; i++ {
			p.FDiv(float64(i%5)+1, 2)
			p.IMul(int64(i%3), 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("captured %d events, want 100", n)
	}
	stats, err := memotable.Replay(&buf, memotable.Paper32x4(), memotable.NonTrivialOnly)
	if err != nil {
		t.Fatal(err)
	}
	div := stats[memotable.FDiv]
	if div.Lookups != 50 || div.Hits != 45 {
		t.Fatalf("fdiv stats %+v, want 50 lookups / 45 hits", div)
	}
	imul, ok := stats[memotable.IMul]
	if !ok {
		t.Fatal("imul stats missing")
	}
	// i%3 in {0,1,2}: 0*7 and 1*7 are trivial, only 2*7 reaches the table.
	if imul.Trivial == 0 || imul.Lookups == 0 {
		t.Fatalf("imul stats %+v", imul)
	}
	if _, ok := stats[memotable.FSqrt]; ok {
		t.Fatal("absent class reported")
	}
}

func TestFacadeSharedTable(t *testing.T) {
	sh := memotable.NewShared(memotable.NewTable(memotable.FMul, memotable.Paper32x4()), 2)
	sh.Insert(2, 3, 6)
	if _, hit := sh.Lookup(2, 3); !hit {
		t.Fatal("shared table lost an entry")
	}
}

func TestExperimentsListAndRun(t *testing.T) {
	names := memotable.Experiments()
	if len(names) != 16 {
		t.Fatalf("%d experiments, want 16 (tables 1,5-13, figures 2-4, 3 extensions)", len(names))
	}
	out, err := memotable.RunExperiment("table1", memotable.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Pentium Pro") {
		t.Fatal("table1 output incomplete")
	}
	if _, err := memotable.RunExperiment("table99", memotable.Tiny); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeOpAliases(t *testing.T) {
	if memotable.IMul != isa.OpIMul || memotable.FSqrt != isa.OpFSqrt {
		t.Fatal("op aliases drifted from the ISA definitions")
	}
	if !memotable.FMul.Commutative() || memotable.FDiv.Commutative() {
		t.Fatal("commutativity through the alias is wrong")
	}
}
