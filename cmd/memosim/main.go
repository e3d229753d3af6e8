// Command memosim reproduces the paper's evaluation: it runs any (or all)
// of the registered tables and figures of §3 and prints them in the
// paper's layout, or as JSON.
//
// Usage:
//
//	memosim -list
//	memosim [-scale tiny|quick|full] [-run all|table5,table6,...|figure4]
//	        [-json] [-parallel N]
//	        [-timeout D] [-keep-going] [-faults SPEC]
//	        [-shards N] [-shard-timeout D] [-shard-retries R]
//	        [-cpuprofile FILE] [-memprofile FILE]
//	memosim -ingest trace.mtrc
//
// A -run selection is executed as one planned pass: every workload the
// selected experiments demand runs once, feeding all their measurement
// sinks together.
//
// -shards N runs the same selection as a supervised fleet: the
// selection is dealt round-robin into N shards, each executed by a
// `memosim -worker -shard i/N` subprocess whose output carries a
// provenance chain (trace fingerprints + rendered result bytes under a
// Merkle root). The coordinator recomputes every root before merging;
// output that fails verification is rejected and retried, and a shard
// that exhausts its retries degrades only its own cells. Merged output
// is byte-identical to the single-process run, plus one trailing
// provenance line in -json mode. Workers exit 0 (clean manifest), 3
// (manifest with degraded cells), 2 (usage/planning error) or 1
// (internal failure); the coordinator only trusts 0 and 3.
//
// -ingest is the offline comparator for live ingestion: it feeds a v2
// trace file through the same incremental decode path and LiveBank
// instruments a `tracecap -listen` session uses, and prints the same
// final snapshot — so live-streamed results can be diffed against an
// offline replay of the identical bytes. Exit 3 marks a corrupt or torn
// stream, as in tracereplay.
//
// Exit codes: 0 on success; 1 when workloads failed and -keep-going is
// not set (hard failure, no results printed); 2 on usage errors, and on
// partial results under -keep-going (results printed, failed cells
// rendered in an errors section and detailed on stderr).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"memotable"
	"memotable/internal/faults"
)

func main() { os.Exit(run()) }

func run() int {
	listFlag := flag.Bool("list", false, "list the registered experiments and exit")
	scaleFlag := flag.String("scale", "quick", "input scale: tiny, quick or full")
	runFlag := flag.String("run", "all", "comma-separated experiments to run: all, or from "+
		strings.Join(memotable.Experiments(), ", "))
	jsonFlag := flag.Bool("json", false, "emit results as a JSON array instead of text tables")
	parallelFlag := flag.Int("parallel", 0,
		"experiment engine workers: 1 is serial, 0 selects GOMAXPROCS")
	timeoutFlag := flag.Duration("timeout", 0,
		"wall-clock budget for the whole run; on expiry the pass cancels cooperatively and remaining cells report as canceled (0 = no limit)")
	keepGoingFlag := flag.Bool("keep-going", false,
		"print partial results and exit 2 when workload cells fail, instead of aborting with exit 1")
	faultsFlag := flag.String("faults", "",
		"fault-injection spec (testing), e.g. 'seed=1;engine.capture.run:p=0.01'; overrides $FAULTS")
	ingestFlag := flag.String("ingest", "",
		"replay a v2 trace file through the live-ingest instruments and print the final snapshot (offline comparator for tracecap -listen)")
	serveFlag := flag.String("serve", "",
		"serve the experiment engine over HTTP on this address (e.g. 127.0.0.1:8080): GET /v1/run responses are byte-identical to -run -json output for the same selection")
	shardsFlag := flag.Int("shards", 0,
		"run the selection as a supervised fleet of this many worker processes; merged output is byte-identical to a single-process run plus a trailing provenance line (0 = single process)")
	workerFlag := flag.Bool("worker", false,
		"fleet worker mode (spawned by -shards): run the -shard slice of the selection and emit a provenance-chained shard manifest on stdout")
	shardFlag := flag.String("shard", "",
		"with -worker: this worker's shard assignment as i/N")
	shardTimeoutFlag := flag.Duration("shard-timeout", 5*time.Minute,
		"with -shards: wall-clock budget per shard attempt; a worker that overruns is killed and the shard retried (0 = no limit)")
	shardRetriesFlag := flag.Int("shard-retries", 2,
		"with -shards: extra attempts a failed shard gets, each on a fresh worker with full-jitter backoff")
	cpuProfileFlag := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfileFlag := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Profiling brackets the whole run, so hot paths can be
	// inspected without a rebuild: memosim -cpuprofile cpu.pprof, then
	// go tool pprof -top cpu.pprof.
	if *cpuProfileFlag != "" {
		f, err := os.Create(*cpuProfileFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memosim:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memosim:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memProfileFlag != "" {
		defer func() {
			f, err := os.Create(*memProfileFlag)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memosim:", err)
				return
			}
			runtime.GC() // settle allocations so the heap profile is sharp
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memosim:", err)
			}
			_ = f.Close()
		}()
	}

	if *listFlag {
		for _, e := range memotable.AllExperiments() {
			fmt.Printf("%-18s %s\n", e.Name, e.Title)
		}
		return 0
	}

	scale, err := memotable.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 2
	}

	// Fault injection: the -faults spec wins over the FAULTS env var, so
	// a test harness can set a process-wide default and override per run.
	spec := *faultsFlag
	if spec == "" {
		spec = os.Getenv("FAULTS")
	}
	if spec != "" {
		plan, err := faults.Parse(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memosim:", err)
			return 2
		}
		faults.Activate(plan)
	}

	if *ingestFlag != "" {
		return runOfflineIngest(*ingestFlag)
	}

	var names []string
	if *runFlag != "all" {
		names = strings.Split(*runFlag, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}

	// Fleet coordinator mode: no engine of its own — the selection runs
	// in supervised worker subprocesses, each with its own engine, and
	// the coordinator only splices their verified bytes.
	if *shardsFlag > 0 && !*workerFlag {
		return runFleet(fleetOpts{
			shards:       *shardsFlag,
			scale:        scale,
			names:        names,
			jsonOut:      *jsonFlag,
			keepGoing:    *keepGoingFlag,
			timeout:      *timeoutFlag,
			shardTimeout: *shardTimeoutFlag,
			retries:      *shardRetriesFlag,
			retryBase:    50 * time.Millisecond,
			parallel:     *parallelFlag,
			faults:       spec,
		})
	}

	// One engine for the whole invocation: its worker pool runs the
	// selection's workloads across -parallel goroutines. Output is
	// bit-identical at any worker count.
	eng := memotable.NewEngine(*parallelFlag)
	defer func() { _ = eng.Close() }()

	// Fleet worker mode: run this process's shard slice and emit a
	// provenance-chained manifest for the coordinator to verify.
	if *workerFlag {
		return runWorker(eng, scale, names, *shardFlag)
	}

	// Service mode: the same engine, shared by many tenants over HTTP.
	// The run-shaping flags (-scale, -run) don't apply — each request
	// carries its own selection — but -timeout becomes the per-run cap.
	if *serveFlag != "" {
		return runServe(*serveFlag, eng, memotable.ServiceConfig{RunTimeout: *timeoutFlag})
	}

	ctx := context.Background()
	if *timeoutFlag > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeoutFlag)
		defer cancel()
	}

	// The whole selection runs as one planned pass; the registry reports
	// every unknown name in the list at once, before running anything.
	// Workload failures land in the pass report, not the error.
	suiteStart := time.Now()
	results, rep, err := memotable.RunContext(ctx, eng, scale, names...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 2
	}
	elapsed := time.Since(suiteStart)

	exit := 0
	if len(rep.Errors) > 0 || rep.Canceled {
		for _, ce := range rep.Errors {
			fmt.Fprintln(os.Stderr, "memosim:", ce)
		}
		if rep.Canceled {
			fmt.Fprintln(os.Stderr, "memosim: run canceled before completion")
		}
		if !*keepGoingFlag {
			fmt.Fprintln(os.Stderr, "memosim: aborting on failed cells (use -keep-going for partial results)")
			return 1
		}
		exit = 2
	}

	if *jsonFlag {
		body, err := memotable.RenderJSONArray(results)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memosim:", err)
			return 1
		}
		_, _ = os.Stdout.Write(body)
		return exit
	}

	for _, r := range results {
		fmt.Println(memotable.RenderText(r))
		fmt.Printf("(%s)\n\n", r.Name)
	}

	// Engine summary: what the invocation ran and delivered.
	st := eng.Stats()
	fmt.Printf("suite: %d experiments in %v, %d workers\n",
		len(results), elapsed.Round(time.Millisecond), st.Workers)
	engineSummary(os.Stdout, st, elapsed)
	return exit
}

// engineSummary prints the engine's run/delivery footer from one stats
// snapshot. The -run path and the -serve shutdown path share it, so the
// line formats — which tests grep — stay in lockstep.
func engineSummary(w io.Writer, st memotable.EngineStats, elapsed time.Duration) {
	fmt.Fprintf(w, "engine: %d captures, %d replays\n", st.Captures, st.Replays)
	fmt.Fprintf(w, "engine: replayed %d events in %v (%.1fM events/sec)\n",
		st.ReplayedEvents, elapsed.Round(time.Millisecond),
		float64(st.ReplayedEvents)/elapsed.Seconds()/1e6)
	fmt.Fprintf(w, "engine: delivery: %d per-sink events delivered (%.1fM events/sec), %d mask skips\n",
		st.DeliveredEvents, float64(st.DeliveredEvents)/elapsed.Seconds()/1e6,
		st.MaskSkips)
}

// runOfflineIngest feeds a v2 trace file through the identical
// incremental path a live tracecap -listen session uses — stream
// decoder, LiveBank sinks, fixed sketch seed — and prints the final
// snapshot, so its stdout is byte-comparable with the live session's.
func runOfflineIngest(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memosim:", err)
		return 1
	}
	bank := memotable.NewLiveBank(1)
	eng := memotable.NewEngine(1)
	defer func() { _ = eng.Close() }()
	sess := eng.NewIngest(memotable.IngestOptions{Sinks: bank.Sinks()})
	var serr error
	if serr = sess.Feed(data); serr == nil {
		var res memotable.IngestResult
		if res, serr = sess.Seal(); serr == nil {
			fmt.Println(memotable.RenderText(bank.Snapshot(res.Stats)))
			// The engine-level ingest counters equal the session's stats
			// here (one session per invocation); printing from the same
			// Stats snapshot the other paths use keeps one formatter.
			st := eng.Stats()
			fmt.Fprintf(os.Stderr, "memosim: replayed %d events in %d frames (%d bytes) from %s\n",
				st.IngestedEvents, st.IngestedFrames, st.IngestedBytes, path)
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "memosim:", serr)
	if errors.Is(serr, memotable.ErrBadTrace) {
		return 3
	}
	return 1
}
