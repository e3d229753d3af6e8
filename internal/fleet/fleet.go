package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"memotable/internal/experiments"
	"memotable/internal/faults"
	"memotable/internal/provenance"
	"memotable/internal/report"
)

// Worker exit codes the coordinator accepts as "manifest emitted". The
// contract (documented in the README): 0 = clean manifest on stdout,
// 3 = manifest on stdout with degraded cells, 2 = usage or planning
// error (no manifest), anything else = worker failure. Only 0 and 3
// carry output worth decoding; every other exit retries the shard.
const (
	workerExitClean    = 0
	workerExitDegraded = 3
)

// Config shapes one coordinated fleet run.
type Config struct {
	// Exe is the memosim binary to launch workers from; empty resolves
	// to the running executable.
	Exe string
	// Shards is the worker count; the caller clamps it to the selection
	// size (experiments.ShardCount) so no shard is empty.
	Shards int
	// Scale every worker runs at.
	Scale experiments.Scale
	// Names is the resolved selection, in canonical selection order
	// (experiments.Resolve).
	Names []string
	// Timeout bounds each shard attempt; on expiry the worker is killed
	// and the attempt counts as failed (0 = no limit).
	Timeout time.Duration
	// Retries is how many extra attempts a failed shard gets, each on a
	// fresh worker process.
	Retries int
	// RetryBase seeds the full-jitter backoff between attempts: attempt
	// k sleeps uniform[0, min(RetryBase<<k, 64*RetryBase)). Zero skips
	// the sleep.
	RetryBase time.Duration
	// Args contributes extra worker argv entries per shard — the CLI
	// forwards -parallel/-faults here.
	Args func(shard int) []string
	// Stderr receives every worker's stderr (nil discards it).
	Stderr io.Writer

	// Test seams. SpawnHook observes each launched worker process (the
	// soak test uses it to force-kill one mid-run); Transform rewrites
	// an attempt's collected stdout before decoding (the soak test uses
	// it to bit-flip one shard's output and watch verification reject
	// it).
	SpawnHook func(shard, attempt int, proc *os.Process)
	Transform func(shard, attempt int, out []byte) []byte
}

// ShardRun is one shard's outcome: its assignment, how many worker
// launches it took, and either a verified manifest or the terminal
// error that exhausted its retry budget.
type ShardRun struct {
	Shard    int
	Names    []string
	Attempts int
	// Manifest is the shard's verified output; nil when the shard
	// terminally failed.
	Manifest *Manifest
	// Err is the terminal failure: the last attempt's error once
	// retries ran out. Tampered output wraps provenance.ErrProvenance.
	Err error
}

// Report is a completed fleet run: every shard's outcome plus the
// combined Merkle root over the verified shard roots (failed shards
// contribute a degraded marker, so the root also attests to which
// shards are missing).
type Report struct {
	Scale  experiments.Scale
	Names  []string
	Shards []ShardRun
	Root   string
}

// Run executes the selection across cfg.Shards supervised workers and
// merges their verified manifests. Shard failures never fail the run:
// a shard that exhausts its retries is reported degraded in the
// Report, and only the coordinator's own misconfiguration (no shards,
// no selection) returns an error.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: shard count %d", cfg.Shards)
	}
	if cfg.Shards > len(cfg.Names) {
		return nil, fmt.Errorf("fleet: %d shards for %d experiments (clamp with experiments.ShardCount)",
			cfg.Shards, len(cfg.Names))
	}
	if cfg.Exe == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("fleet: resolving worker executable: %w", err)
		}
		cfg.Exe = exe
	}

	assign := experiments.ShardSelection(cfg.Names, cfg.Shards)
	runs := make([]ShardRun, cfg.Shards)
	var wg sync.WaitGroup
	for i := range runs {
		runs[i] = ShardRun{Shard: i, Names: assign[i]}
		wg.Add(1)
		go func(sr *ShardRun) {
			defer wg.Done()
			sr.Manifest, sr.Attempts, sr.Err = cfg.runShard(ctx, sr.Shard, sr.Names)
		}(&runs[i])
	}
	wg.Wait()

	roots := make([]string, len(runs))
	for i := range runs {
		if runs[i].Manifest != nil {
			roots[i] = runs[i].Manifest.Root
		}
	}
	return &Report{Scale: cfg.Scale, Names: cfg.Names, Shards: runs, Root: provenance.Combine(roots)}, nil
}

// runShard drives one shard through its attempt budget: launch a fresh
// worker, collect and verify, and on any failure back off with full
// jitter and try again — rescheduling onto a new process, never reusing
// a suspect one.
func (cfg *Config) runShard(ctx context.Context, shard int, names []string) (*Manifest, int, error) {
	attempts := 0
	var lastErr error
	for try := 0; try <= cfg.Retries; try++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return nil, attempts, fmt.Errorf("fleet: shard %d: run canceled: %w", shard, lastErr)
		}
		attempts++
		m, err := cfg.attempt(ctx, shard, names, attempts)
		if err == nil {
			return m, attempts, nil
		}
		lastErr = err
		if try < cfg.Retries && cfg.RetryBase > 0 {
			sleep := backoff(cfg.RetryBase, try)
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
			}
		}
	}
	return nil, attempts, lastErr
}

// backoff draws a full-jitter exponential delay: uniform over
// [0, base<<attempt), capped at 64× base — the same shape the engine
// uses for overflow-I/O retries.
func backoff(base time.Duration, attempt int) time.Duration {
	ceil := base << attempt
	if lim := 64 * base; ceil > lim || ceil <= 0 {
		ceil = lim
	}
	return time.Duration(rand.Int64N(int64(ceil)))
}

// attempt runs one worker process for the shard and returns its
// verified manifest. Every exit from this function other than success
// is retryable by the caller.
func (cfg *Config) attempt(ctx context.Context, shard int, names []string, attempt int) (*Manifest, error) {
	if err := faults.Inject(faults.FleetSpawn); err != nil {
		return nil, fmt.Errorf("fleet: shard %d spawn: %w", shard, err)
	}
	actx := ctx
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}

	args := []string{
		"-worker",
		"-shard", fmt.Sprintf("%d/%d", shard, cfg.Shards),
		"-scale", cfg.Scale.String(),
		"-run", strings.Join(names, ","),
	}
	if cfg.Args != nil {
		args = append(args, cfg.Args(shard)...)
	}
	cmd := exec.CommandContext(actx, cfg.Exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = cfg.Stderr
	// A killed worker must not wedge the coordinator on inherited pipe
	// ends; WaitDelay bounds the post-kill drain.
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fleet: shard %d: starting worker: %w", shard, err)
	}
	if cfg.SpawnHook != nil {
		cfg.SpawnHook(shard, attempt, cmd.Process)
	}
	err := cmd.Wait()
	if cerr := actx.Err(); cerr != nil {
		return nil, fmt.Errorf("fleet: shard %d: worker timed out after %v: %w", shard, cfg.Timeout, cerr)
	}
	exit := workerExitClean
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			return nil, fmt.Errorf("fleet: shard %d: worker: %w", shard, err)
		}
		exit = ee.ExitCode()
	}
	if exit != workerExitClean && exit != workerExitDegraded {
		return nil, fmt.Errorf("fleet: shard %d: worker exited %d", shard, exit)
	}

	if err := faults.Inject(faults.FleetCollect); err != nil {
		return nil, fmt.Errorf("fleet: shard %d collect: %w", shard, err)
	}
	raw := out.Bytes()
	if cfg.Transform != nil {
		raw = cfg.Transform(shard, attempt, raw)
	}
	m, err := DecodeManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d: %w", shard, err)
	}
	if err := faults.Inject(faults.FleetVerify); err != nil {
		return nil, fmt.Errorf("fleet: shard %d verify: %w", shard, err)
	}
	if err := Verify(m, shard, cfg.Shards, cfg.Scale.String(), names); err != nil {
		return nil, fmt.Errorf("fleet: shard %d: %w", shard, err)
	}
	if m.Degraded != (exit == workerExitDegraded) {
		return nil, fmt.Errorf("fleet: shard %d: worker exit %d contradicts manifest degraded=%v",
			shard, exit, m.Degraded)
	}
	return m, nil
}

// cell returns the merged output bytes for selection position idx: the
// owning shard's carried rendering, or a locally rendered degraded
// result when that shard terminally failed.
func (r *Report) cell(idx int) (ShardResult, error) {
	sr := &r.Shards[idx%len(r.Shards)]
	name := r.Names[idx]
	if sr.Manifest == nil {
		deg := report.NewDegradedResult(name, []report.RunError{{
			Workload: fmt.Sprintf("shard %d/%d", sr.Shard, len(r.Shards)),
			Stage:    "fleet",
			Message:  sr.Err.Error(),
		}})
		doc, err := report.JSON(deg)
		if err != nil {
			return ShardResult{}, err
		}
		return ShardResult{Name: name, JSON: string(doc), Text: report.Text(deg)}, nil
	}
	pos := idx / len(r.Shards)
	return sr.Manifest.Results[pos], nil
}

// MergedJSON assembles the run's `-json` body by splicing the shards'
// carried bytes into the pinned array layout — byte-identical to a
// single-process run for every clean cell — plus the provenance block
// the CLI appends below the array.
func (r *Report) MergedJSON() ([]byte, *report.Provenance, error) {
	docs := make([][]byte, len(r.Names))
	for i := range r.Names {
		c, err := r.cell(i)
		if err != nil {
			return nil, nil, err
		}
		docs[i] = []byte(c.JSON)
	}
	return report.SpliceJSONArray(docs), r.Provenance(), nil
}

// MergedTexts returns each experiment's text rendering in selection
// order, shard-carried bytes for verified shards and locally rendered
// degraded results otherwise.
func (r *Report) MergedTexts() ([]ShardResult, error) {
	out := make([]ShardResult, len(r.Names))
	for i := range r.Names {
		c, err := r.cell(i)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// Provenance summarizes verification for the output's trailing block.
func (r *Report) Provenance() *report.Provenance {
	p := &report.Provenance{Root: r.Root}
	for i := range r.Shards {
		sr := &r.Shards[i]
		sp := report.ShardProvenance{
			Shard:       sr.Shard,
			Experiments: sr.Names,
			Attempts:    sr.Attempts,
		}
		if sr.Manifest != nil {
			sp.Root = sr.Manifest.Root
			sp.Verified = true
			sp.Degraded = sr.Manifest.Degraded
		} else {
			sp.Degraded = true
			if sr.Err != nil {
				sp.Error = sr.Err.Error()
			}
		}
		p.Shards = append(p.Shards, sp)
	}
	return p
}

// Degraded reports whether any cell of the merged output carries
// errors — a terminally failed shard, or worker-side cell failures
// inside a verified manifest.
func (r *Report) Degraded() bool {
	for i := range r.Shards {
		if r.Shards[i].Err != nil || (r.Shards[i].Manifest != nil && r.Shards[i].Manifest.Degraded) {
			return true
		}
	}
	return false
}

// Errors flattens every shard-level failure for stderr reporting.
func (r *Report) Errors() []error {
	var errs []error
	for i := range r.Shards {
		if r.Shards[i].Err != nil {
			errs = append(errs, r.Shards[i].Err)
		}
	}
	return errs
}
