package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// exactCounts are the per-pass counters that repeat exactly from run to
// run of one commit. -compare holds two sets of runs to identical values
// for them. Left out are the counters that depend on how goroutines
// interleave: fan-out replays, ring stalls, mask skips and delivered
// events (which blocks a pass decodes is a race for budget), and on
// quick-warm the split of settled entries into captures and store hits
// (concurrent store reads race for the same budget), so their sum is
// compared instead.
var exactCounts = []string{"settled", "replays", "replayed_events", "recaptures",
	"degraded_captures", "spill_retries", "failed"}

// loadResults reads a results set: one results file, or every untraced
// results file in a directory.
func loadResults(path string) ([]resultsFile, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []resultsFile
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !rf.Traced {
			out = append(out, rf)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results files", path)
	}
	return out, nil
}

// verdict judges set b against set a for one metric. A regression is
// judged against the metric's bound and a gain against the run-to-run
// spread; when either set's spread exceeds the bound the comparison
// cannot resolve a bound-sized change, unless the two sets do not
// overlap at all.
func verdict(a, b []float64, m metricSpec) string {
	medA, medB := median(a), median(b)
	worse := (medB - medA) / math.Abs(medA)
	if m.Better == "higher" {
		worse = -worse
	}
	noise := max(spread(a), spread(b))
	sa, sb := sorted(a), sorted(b)
	bBetter, bWorse := sb[len(sb)-1] < sa[0], sb[0] > sa[len(sa)-1]
	if m.Better == "higher" {
		bBetter, bWorse = bWorse, bBetter
	}
	switch {
	case noise > m.Bound && bBetter:
		return "better"
	case noise > m.Bound && bWorse && worse > m.Bound:
		return "worse"
	case noise > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "worse"
	case -worse > noise:
		return "better"
	}
	return "within bound"
}

// runCompare prints, for every workload both sets ran, each end-to-end
// metric's medians and quartiles, the relative change and its verdict,
// then checks the exact counters. It exits 1 on a worse metric or a
// counter that moved.
func runCompare(spec *benchSpec, pathA, pathB string, w io.Writer) int {
	setA, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memobench:", err)
		return 2
	}
	setB, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memobench:", err)
		return 2
	}
	byWorkload := func(set []resultsFile) map[string][]resultsFile {
		m := map[string][]resultsFile{}
		for _, rf := range set {
			m[rf.Workload] = append(m[rf.Workload], rf)
		}
		return m
	}
	wa, wb := byWorkload(setA), byWorkload(setB)
	var names []string
	for n := range wa {
		if _, ok := wb[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "memobench: the two sets share no workload")
		return 2
	}

	exit := 0
	fmt.Fprintf(w, "%-11s %-17s %-46s %-46s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
	for _, n := range names {
		for _, m := range spec.EndToEnd {
			a, b := metricValues(wa[n], m.Name), metricValues(wb[n], m.Name)
			v := verdict(a, b, m)
			if v == "worse" {
				exit = 1
			}
			fmt.Fprintf(w, "%-11s %-17s %-46s %-46s %+7.2f%%  %s (bound %.0f%%, runs %d/%d)\n", n, m.Name,
				quartileText(a, m.Unit), quartileText(b, m.Unit), 100*(median(b)-median(a))/math.Abs(median(a)),
				v, 100*m.Bound, len(a), len(b))
		}
		if diff := countDiffs(append(append([]resultsFile(nil), wa[n]...), wb[n]...)); len(diff) > 0 {
			exit = 1
			fmt.Fprintf(w, "%-11s counts differ: %s\n", n, strings.Join(diff, "; "))
		} else {
			fmt.Fprintf(w, "%-11s counts identical (%s)\n", n, strings.Join(exactCounts, ", "))
		}
	}
	return exit
}

func metricValues(set []resultsFile, name string) []float64 {
	var vs []float64
	for _, rf := range set {
		vs = append(vs, rf.Metrics[name])
	}
	return vs
}

func quartileText(xs []float64, unit string) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", median(xs), q1, q3, unit)
}

// countDiffs lists the exact counters that do not read the same in
// every run of the set.
func countDiffs(set []resultsFile) []string {
	var diffs []string
	for _, k := range exactCounts {
		seen := map[float64]bool{}
		var vals []string
		for _, rf := range set {
			v, ok := rf.Counts[k]
			if !ok {
				continue
			}
			if !seen[v] {
				seen[v] = true
				vals = append(vals, fmt.Sprint(v))
			}
		}
		if len(vals) > 1 {
			diffs = append(diffs, k+" "+strings.Join(vals, " vs "))
		}
	}
	return diffs
}
