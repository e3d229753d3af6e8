package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"memotable"
	"memotable/internal/experiments"
	"memotable/internal/fleet"
	"memotable/internal/report"
)

// fleetOpts is the coordinator's slice of the CLI flags.
type fleetOpts struct {
	shards       int
	scale        memotable.Scale
	names        []string // raw -run selection (nil = all)
	jsonOut      bool
	keepGoing    bool
	timeout      time.Duration // whole-run budget
	shardTimeout time.Duration // per-attempt budget
	retries      int
	retryBase    time.Duration
	parallel     int
	faults       string
}

// runFleet is the -shards coordinator: shard the selection, supervise
// one worker process per shard, merge verified output. Exit codes
// mirror the single-process run: 0 clean; 1 degraded without
// -keep-going (nothing printed); 2 usage errors, and degraded results
// under -keep-going (merged output printed, failures on stderr).
func runFleet(o fleetOpts) int {
	names, err := experiments.Resolve(o.names...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 2
	}
	shards := experiments.ShardCount(o.shards, len(names))
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 2
	}

	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	cfg := fleet.Config{
		Exe:       exe,
		Shards:    shards,
		Scale:     o.scale,
		Names:     names,
		Timeout:   o.shardTimeout,
		Retries:   o.retries,
		RetryBase: o.retryBase,
		Stderr:    os.Stderr,
		Args:      func(int) []string { return workerArgs(o) },
	}
	start := time.Now()
	rep, err := fleet.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 2
	}
	elapsed := time.Since(start)

	exit := 0
	if rep.Degraded() {
		for _, e := range rep.Errors() {
			fmt.Fprintln(os.Stderr, "memosim:", e)
		}
		if !o.keepGoing {
			fmt.Fprintln(os.Stderr, "memosim: aborting on degraded shards (use -keep-going for partial results)")
			return 1
		}
		exit = 2
	}

	if o.jsonOut {
		body, prov, err := rep.MergedJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "memosim:", err)
			return 1
		}
		out, err := report.AppendProvenance(body, prov)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memosim:", err)
			return 1
		}
		_, _ = os.Stdout.Write(out)
		return exit
	}

	texts, err := rep.MergedTexts()
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 1
	}
	for _, tr := range texts {
		fmt.Println(tr.Text)
		fmt.Printf("(%s)\n\n", tr.Name)
	}
	attempts := 0
	for i := range rep.Shards {
		attempts += rep.Shards[i].Attempts
	}
	fmt.Printf("fleet: %d experiments across %d shards in %v, %d worker launches\n",
		len(names), shards, elapsed.Round(time.Millisecond), attempts)
	for i := range rep.Shards {
		sr := &rep.Shards[i]
		switch {
		case sr.Manifest != nil:
			fmt.Printf("fleet: shard %d: verified root %s (%d experiments, %d attempts)\n",
				sr.Shard, sr.Manifest.Root, len(sr.Names), sr.Attempts)
		default:
			fmt.Printf("fleet: shard %d: degraded after %d attempts\n", sr.Shard, sr.Attempts)
		}
	}
	fmt.Printf("fleet: combined root %s\n", rep.Root)
	return exit
}

// workerArgs forwards the run-shaping flags to a shard's worker.
func workerArgs(o fleetOpts) []string {
	var args []string
	if o.parallel != 0 {
		args = append(args, "-parallel", strconv.Itoa(o.parallel))
	}
	if o.faults != "" {
		args = append(args, "-faults", o.faults)
	}
	return args
}

// runWorker is the -worker entry point: run this shard's experiments
// on the already-configured engine and emit a provenance-chained
// manifest on stdout. Exit codes are the worker contract the
// coordinator supervises against: 0 manifest emitted, all cells clean;
// 2 usage or planning error (no manifest); 3 manifest emitted with
// degraded cells; 1 internal failure.
func runWorker(eng *memotable.Engine, scale memotable.Scale, names []string, shardSpec string) int {
	shard, shards, err := fleet.ParseShard(shardSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 2
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "memosim: -worker needs an explicit -run selection")
		return 2
	}
	// Workload failures degrade cells, never the worker: the results
	// carry their errors and the manifest marks itself degraded, so the
	// coordinator can merge the clean cells and account for the rest.
	results, _, err := memotable.RunContext(context.Background(), eng, scale, names...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 2
	}
	m, err := fleet.BuildManifest(shard, shards, scale.String(), names, results, eng.TraceFingerprints())
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 1
	}
	enc, err := m.Encode()
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 1
	}
	if _, err := os.Stdout.Write(enc); err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 1
	}
	if m.Degraded {
		return 3
	}
	return 0
}
