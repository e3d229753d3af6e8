package memotable_test

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// trajectory is BENCH_trajectory.json: the end-to-end gain each
// performance change claimed, as its EXPERIMENTS.md section recorded it.
type trajectory struct {
	Machine string           `json:"machine"`
	Command string           `json:"command"`
	Rows    []trajectoryStep `json:"rows"`
}

type trajectoryStep struct {
	Change        string  `json:"change"`
	Section       string  `json:"section"`
	Workload      string  `json:"workload"`
	Metric        string  `json:"metric"`
	Parent        float64 `json:"parent_median"`
	After         float64 `json:"change_median"`
	Pairs         int     `json:"pairs"`
	ParentCommit  string  `json:"parent_commit"`
	ChangeCommit  string  `json:"change_commit"`
	ClaimsImprove bool    `json:"claims_improvement"`
}

// benchmarkSpec is the part of BENCHMARK.json the trajectory refers to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// TestBenchTrajectory: every row of the committed trajectory names a
// workload and an end-to-end metric BENCHMARK.json declares, a section
// EXPERIMENTS.md has, and a parent and change measured over at least
// one pair. A row whose change claims an improvement must move its
// metric in the metric's better direction. Only the last row's change
// commit may still be unrecorded.
func TestBenchTrajectory(t *testing.T) {
	var traj trajectory
	readJSON(t, "BENCH_trajectory.json", &traj, true)
	var spec benchmarkSpec
	readJSON(t, "BENCHMARK.json", &spec, false)
	experimentsDoc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}

	workloads := make(map[string]bool)
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	better := make(map[string]string)
	for _, m := range spec.EndToEnd {
		better[m.Name] = m.Better
	}
	if traj.Machine == "" || traj.Command == "" || len(traj.Rows) == 0 {
		t.Fatal("the trajectory names no machine, no command or no rows")
	}
	commit := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	for i, r := range traj.Rows {
		if !workloads[r.Workload] {
			t.Errorf("row %d (%s): workload %q is not in BENCHMARK.json", i, r.Change, r.Workload)
		}
		dir, ok := better[r.Metric]
		if !ok {
			t.Errorf("row %d (%s): %q is not an end-to-end metric of BENCHMARK.json", i, r.Change, r.Metric)
		}
		if !strings.Contains(string(experimentsDoc), "\n## "+r.Section+"\n") {
			t.Errorf("row %d (%s): EXPERIMENTS.md has no section %q", i, r.Change, r.Section)
		}
		if r.Pairs < 1 || r.Parent <= 0 || r.After <= 0 {
			t.Errorf("row %d (%s): %d pairs, medians %v and %v", i, r.Change, r.Pairs, r.Parent, r.After)
		}
		improved := r.After < r.Parent
		if dir == "higher" {
			improved = r.After > r.Parent
		}
		if r.ClaimsImprove && !improved {
			t.Errorf("row %d (%s): claims an improvement, but %s went %v -> %v (%s is better)",
				i, r.Change, r.Metric, r.Parent, r.After, dir)
		}
		if !commit.MatchString(r.ParentCommit) {
			t.Errorf("row %d (%s): parent commit %q", i, r.Change, r.ParentCommit)
		}
		last := i == len(traj.Rows)-1
		if !commit.MatchString(r.ChangeCommit) && !(last && r.ChangeCommit == "") {
			t.Errorf("row %d (%s): change commit %q", i, r.Change, r.ChangeCommit)
		}
	}
}

// readJSON decodes a file at the repository root; strict rejects fields
// v does not declare.
func readJSON(t *testing.T, path string, v any, strict bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
