// Command tracecap captures the operand trace of one workload to a binary
// trace file — the role Shade's instrumented execution played for the
// paper — or ingests a live v2 trace stream from an external producer,
// replaying it through MEMO-TABLE banks as the frames arrive.
//
// Usage:
//
//	tracecap -out trace.mtrc -app vspatial -input mandrill [-maxdim 128]
//	tracecap -out trace.mtrc -kernel hydro2d [-compress]
//	tracecap -listen unix:/tmp/cap.sock [-snapshot N]
//	tracecap -stdin [-snapshot N]
//
// Capture mode writes a trace file in format v2, which frames the stream
// with CRC32C checksums so corruption is detected on replay; -compress
// additionally DEFLATE-compresses each frame. tracereplay reads v2 and
// the older unframed v1.
//
// Ingest mode (-listen or -stdin) accepts a self-delimiting CRC-framed
// v2 stream — from one connection on a unix or TCP socket, or from
// standard input — and feeds each complete frame through live
// MEMO-TABLE banks and a cycle tally as it arrives. -snapshot N prints a
// rolling hit-ratio/speedup snapshot every N events; the final snapshot
// prints on stdout once the stream has ended at a clean frame boundary.
// -listen addresses take the forms "unix:/path", "tcp:host:port", or a
// bare filesystem path (unix).
//
// Each mode rejects the other's flags (-compress, -maxdim and -input are
// capture flags; -snapshot is an ingest flag) rather than ignoring them;
// -faults is valid in both.
//
// Exit codes: 0 on success, 1 on I/O failure (including a failed
// listen/accept), 2 on usage errors, 3 when the ingested stream is
// corrupt or torn.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"memotable"
	"memotable/internal/faults"
	"memotable/internal/imaging"
	"memotable/internal/scientific"
	"memotable/internal/workloads"
)

func main() { os.Exit(run()) }

func run() int {
	out := flag.String("out", "", "output trace file (capture mode)")
	app := flag.String("app", "", "Multi-Media application to trace")
	input := flag.String("input", "mandrill", "catalog input image for -app")
	kernel := flag.String("kernel", "", "scientific kernel to trace")
	maxDim := flag.Int("maxdim", 128, "decimate the input to this many pixels per side")
	compress := flag.Bool("compress", false, "DEFLATE-compress the trace frames")
	listen := flag.String("listen", "", "ingest a live v2 stream from one connection on this address (unix:/path, tcp:host:port, or a bare unix socket path)")
	stdinMode := flag.Bool("stdin", false, "ingest a live v2 stream from standard input")
	snapshot := flag.Uint64("snapshot", 0, "ingest mode: print a rolling snapshot every N events (0 = final only)")
	faultsFlag := flag.String("faults", "", "fault-injection spec (testing), e.g. 'seed=1;ingest.frame:p=0.01'; overrides $FAULTS")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	spec := *faultsFlag
	if spec == "" {
		spec = os.Getenv("FAULTS")
	}
	if spec != "" {
		plan, err := faults.Parse(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracecap:", err)
			return 2
		}
		faults.Activate(plan)
	}

	ingesting := *listen != "" || *stdinMode
	if ingesting {
		if *listen != "" && *stdinMode {
			fmt.Fprintln(os.Stderr, "tracecap: -listen and -stdin are mutually exclusive")
			return 2
		}
		if name := firstSet(set, "out", "app", "kernel", "input", "maxdim", "compress"); name != "" {
			fmt.Fprintf(os.Stderr, "tracecap: ingest mode takes no capture flag -%s\n", name)
			return 2
		}
		return runIngest(*listen, *snapshot)
	}

	if name := firstSet(set, "snapshot"); name != "" {
		fmt.Fprintf(os.Stderr, "tracecap: capture mode takes no ingest flag -%s (ingest needs -listen or -stdin)\n", name)
		return 2
	}
	if *out == "" || (*app == "") == (*kernel == "") {
		fmt.Fprintln(os.Stderr, "tracecap: need -out and exactly one of -app/-kernel (or -listen/-stdin)")
		flag.Usage()
		return 2
	}

	var runWorkload func(*memotable.Probe)
	switch {
	case *app != "":
		if *maxDim <= 0 {
			return usage(fmt.Errorf("-maxdim must be positive, got %d", *maxDim))
		}
		a, err := workloads.Lookup(*app)
		if err != nil {
			return usage(err)
		}
		in := imaging.Find(*input)
		if in == nil {
			return usage(fmt.Errorf("unknown input %q", *input))
		}
		src := in.Image
		runWorkload = func(p *memotable.Probe) {
			// Mirror the engine's capture path: decimate the input into a
			// private address space as the run's first allocation, so the
			// trace captured here is byte-identical to the engine's.
			as := imaging.NewAddressSpace()
			a.Run(p, as, as.Decimate(src, *maxDim))
		}
	default:
		k, err := scientific.Lookup(*kernel)
		if err != nil {
			return usage(err)
		}
		runWorkload = k.Run
	}

	f, err := os.Create(*out)
	if err != nil {
		return fail(err)
	}
	n, err := memotable.Capture(f, *compress, runWorkload)
	if err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	fmt.Printf("captured %d events to %s\n", n, *out)
	return 0
}

// runIngest drives one live ingest session from a socket or stdin:
// frames replay into a LiveBank as they arrive, rolling snapshots print
// per -snapshot, and a cleanly ended stream seals and prints the final
// snapshot.
func runIngest(addr string, snapshotEvery uint64) int {
	src, cleanup, err := ingestSource(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecap:", err)
		return 1
	}
	defer cleanup()

	eng := memotable.NewEngine(1)
	defer func() { _ = eng.Close() }()

	// Fixed sketch seed: live and offline (memosim -ingest) snapshots of
	// the same stream must render byte-identically.
	bank := memotable.NewLiveBank(1)
	sess := eng.NewIngest(memotable.IngestOptions{
		Sinks:         bank.Sinks(),
		SnapshotEvery: snapshotEvery,
		OnSnapshot: func(st memotable.IngestStats) {
			fmt.Println(memotable.RenderText(bank.Snapshot(st)))
		},
	})
	defer sess.Abort() // a read error below returns without sealing

	buf := make([]byte, 64<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if ferr := sess.Feed(buf[:n]); ferr != nil {
				return ingestFail(ferr)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "tracecap:", rerr)
			return 1
		}
	}
	res, err := sess.Seal()
	if err != nil {
		return ingestFail(err)
	}
	fmt.Println(memotable.RenderText(bank.Snapshot(res.Stats)))
	fmt.Fprintf(os.Stderr, "tracecap: ingested %d events in %d frames (%d bytes)\n",
		res.Stats.Events, res.Stats.Frames, res.Stats.Bytes)
	return 0
}

// firstSet returns the first of names given on the command line, or "".
func firstSet(set map[string]bool, names ...string) string {
	for _, name := range names {
		if set[name] {
			return name
		}
	}
	return ""
}

// ingestSource resolves the ingest input: stdin for an empty address,
// else one accepted connection on the parsed listen address.
func ingestSource(addr string) (io.Reader, func(), error) {
	if addr == "" {
		return os.Stdin, func() {}, nil
	}
	network, target := "unix", addr
	switch {
	case strings.HasPrefix(addr, "unix:"):
		target = addr[len("unix:"):]
	case strings.HasPrefix(addr, "tcp:"):
		network, target = "tcp", addr[len("tcp:"):]
	}
	ln, err := net.Listen(network, target)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "tracecap: listening on %s\n", ln.Addr())
	conn, err := ln.Accept()
	if err != nil {
		_ = ln.Close()
		return nil, nil, err
	}
	return conn, func() {
		_ = conn.Close()
		_ = ln.Close()
	}, nil
}

// ingestFail classifies a broken session: corrupt or torn streams exit
// 3 (tracereplay's corrupt-trace code), everything else exits 1.
func ingestFail(err error) int {
	fmt.Fprintln(os.Stderr, "tracecap:", err)
	if errors.Is(err, memotable.ErrBadTrace) {
		return 3
	}
	return 1
}

// fail reports a write/capture failure: exit 1.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "tracecap:", err)
	return 1
}

// usage reports a bad selection (unknown app, kernel or input, or a
// non-positive -maxdim): exit 2, like the flag-validation errors above.
func usage(err error) int {
	fmt.Fprintln(os.Stderr, "tracecap:", err)
	return 2
}
