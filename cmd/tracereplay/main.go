// Command tracereplay streams a captured operand trace through a
// MEMO-TABLE configuration and reports per-class hit ratios, so one
// capture can evaluate any table geometry — exactly how the paper swept
// sizes and associativities over its Shade traces.
//
// Usage:
//
//	tracereplay -in trace.mtrc [-entries 32] [-ways 4] [-mantissa]
//	            [-policy non|all|intgr]
//
// Exit codes: 0 on success, 1 on I/O failure, 2 on usage errors, 3 when
// the input trace is corrupt or truncated (bad magic, torn frame, CRC
// mismatch).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"memotable"
	"memotable/internal/isa"
)

func main() {
	in := flag.String("in", "", "input trace file (required)")
	entries := flag.Int("entries", 32, "table entries (0 = infinite)")
	ways := flag.Int("ways", 4, "associativity (0 = fully associative)")
	mantissa := flag.Bool("mantissa", false, "tag floating-point operands by mantissa only")
	policy := flag.String("policy", "non", "trivial-op policy: all, non or intgr")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "tracereplay: need -in")
		flag.Usage()
		os.Exit(2)
	}
	var pol memotable.TrivialPolicy
	switch *policy {
	case "all":
		pol = memotable.CacheAll
	case "non":
		pol = memotable.NonTrivialOnly
	case "intgr":
		pol = memotable.Integrated
	default:
		fmt.Fprintf(os.Stderr, "tracereplay: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	cfg := memotable.Config{Entries: *entries, Ways: *ways, MantissaOnly: *mantissa}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "tracereplay:", err)
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer func() { _ = f.Close() }()

	stats, err := memotable.Replay(f, cfg, pol)
	if err != nil {
		fail(err)
	}
	fmt.Printf("table: %d entries, %d ways, mantissa=%v, policy=%s\n",
		*entries, *ways, *mantissa, *policy)
	for _, op := range []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt} {
		st, ok := stats[op]
		if !ok {
			continue
		}
		ratio := st.HitRatio()
		if pol == memotable.Integrated {
			ratio = st.IntegratedHitRatio()
		}
		fmt.Printf("%-6s lookups %9d  hits %9d  trivial %9d  hit ratio %.3f\n",
			op, st.Lookups, st.Hits, st.Trivial, ratio)
	}
}

// fail reports to stderr and exits with a code that distinguishes a
// corrupt trace (3) from plain I/O failure (1), so scripted sweeps can
// quarantine bad captures instead of retrying them.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracereplay:", err)
	if errors.Is(err, memotable.ErrBadTrace) {
		os.Exit(3)
	}
	os.Exit(1)
}
