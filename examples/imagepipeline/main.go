// Imagepipeline: run a real image-processing application (the vspatial
// feature extractor) on a synthetic photograph through the full cycle
// model, with and without MEMO-TABLEs, and report the whole-application
// speedup — the paper's Table 11–13 methodology on one workload.
//
//	go run ./examples/imagepipeline
package main

import (
	"fmt"

	"memotable"
	"memotable/internal/cpu"
	"memotable/internal/experiments"
	"memotable/internal/imaging"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/workloads"
)

func main() {
	input := imaging.Find("mandrill").Image.Decimate(128)
	fmt.Printf("input: mandrill stand-in, %dx%d, entropy %.2f bits\n",
		input.W, input.H, input.Entropy())

	app, err := workloads.Lookup("vspatial")
	if err != nil {
		panic(err)
	}

	// One event stream, two machines: the stream feeds a cycle tally and
	// 32/4 MEMO-TABLEs, and the tally is priced on a baseline and on a
	// memo-enhanced in-order core with fmul=3 / fdiv=13 latencies and a
	// two-level cache hierarchy, its multipliers and divider answering
	// table hits in one cycle.
	proc := isa.FastFP()
	tally := cpu.New()
	tables := experiments.NewTableSet(memo.Paper32x4(), memo.NonTrivialOnly)
	probe := memotable.NewProbe(tally, tables)
	as := imaging.NewAddressSpace()
	out := app.Run(probe, as, as.Clone(input))
	fmt.Printf("output: %dx%dx%d feature planes\n\n", out.W, out.H, out.Bands)

	ops := []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv}
	baseline, enhanced := tally.On(proc), tally.On(proc, tables.Units(ops...)...)
	fmt.Printf("%-22s %14s %14s\n", "", "baseline", "memo-enhanced")
	fmt.Printf("%-22s %14d %14d\n", "total cycles", baseline.Total, enhanced.Total)
	for _, op := range ops {
		fmt.Printf("%-22s %14d %14d\n", op.String()+" cycles",
			baseline.Class[op], enhanced.Class[op])
	}
	fmt.Printf("%-22s %14s %14d\n", "cycles saved", "-", enhanced.Saved)
	fmt.Printf("\nspeedup: %.3f\n",
		float64(baseline.Total)/float64(enhanced.Total))

	fmt.Println("\nper-table hit ratios (32 entries, 4-way):")
	for _, op := range ops {
		st := tables.Unit(op).Table().Stats()
		fmt.Printf("  %-6s %.2f (%d of %d lookups)\n",
			op, st.HitRatio(), st.Hits, st.Lookups)
	}
	l1, l2 := tally.L1Stats(), tally.L2Stats()
	fmt.Printf("\nmemory hierarchy: L1 %.1f%% hits, L2 %.1f%% hits\n",
		100*l1.HitRatio(), 100*l2.HitRatio())
}
