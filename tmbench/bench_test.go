package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the slice of BENCHMARK.json the benchmark must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables and the
// workload list in step with BENCHMARK.json at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// runTiny runs one workload at test size and returns its printed report
// and the parsed final line.
func runTiny(t *testing.T, workload string, traced bool, plant int64, workDir string) (string, *result) {
	t.Helper()
	opts := options{workload: workload, seed: 7, seconds: 0.4, trace: traced, tiny: true,
		plantWrong: plant, workDir: workDir}
	rep, err := execute(opts, workloads[workload])
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out bytes.Buffer
	if err := rep.print(&out, traced); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, out.String())
	}
	return out.String(), &res
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// size: every metric must be printed by name with its unit, and every
// answer must check.
func TestWorkloadsTiny(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			out, res := runTiny(t, name, traced, 0, t.TempDir())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", name, traced, d.name, m.Unit, d.unit)
				}
				if !strings.Contains(out, "metric "+d.name+" ") {
					t.Errorf("%s traced=%v: no report line for %s", name, traced, d.name)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if !traced && name != "fleet-sketch" && !strings.Contains(out, "metric server.exact_share ") {
				t.Errorf("%s: server.exact_share not reported\n%s", name, out)
			}
		}
	}
}

// TestPlantedWrongAnswerCounted corrupts one served answer per workload
// and requires the oracle to count it as a failed operation.
func TestPlantedWrongAnswerCounted(t *testing.T) {
	for name := range workloads {
		out, res := runTiny(t, name, false, 5, t.TempDir())
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: planted wrong answer not counted: correct=%v failed=%d\n%s", name, res.Correct, res.Failed, out)
		}
	}
}

// exactCounts are, per workload, the metrics that must be pure functions
// of the seed. (On ingest-serve the prune scans run on whichever window
// the run ended with, so prune.coords_per_query is not one.)
var exactCounts = map[string][]string{
	"query-exact":  {"fft.correlations_per_day", "prune.coords_per_query"},
	"fleet-sketch": {"fft.correlations_per_day", "coord.subqueries_per_request"},
	"ingest-serve": {"fft.correlations_per_day"},
}

// TestExactCountsRepeat runs every workload twice with one seed: the
// exact counts must come out the same, and each run's in-run repeats
// must agree.
func TestExactCountsRepeat(t *testing.T) {
	for name := range workloads {
		var runs [2]*report
		for i := range runs {
			opts := options{workload: name, seed: 11, seconds: 0.3, tiny: true, workDir: t.TempDir()}
			rep, err := execute(opts, workloads[name])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(rep.mismatches) > 0 {
				t.Errorf("%s run %d: exact counts did not repeat within the run: %v", name, i, rep.mismatches)
			}
			runs[i] = rep
		}
		for _, m := range exactCounts[name] {
			if a, b := runs[0].values[m], runs[1].values[m]; a != b || a == 0 {
				t.Errorf("%s: %s = %v, then %v with the same seed", name, m, a, b)
			}
		}
	}
}

// TestCountMismatchMakesRunIncorrect pins that a flagged exact count
// turns the result to correct=false.
func TestCountMismatchMakesRunIncorrect(t *testing.T) {
	rep := newReport()
	rep.ops(1, 0, "")
	for _, d := range endToEnd {
		rep.set(d.name, 1)
	}
	res, err := rep.finalize(false)
	if err != nil || !res.Correct {
		t.Fatalf("clean run: correct=%v err=%v", res != nil && res.Correct, err)
	}
	rep.countMismatch("planted")
	var out bytes.Buffer
	if err := rep.print(&out, false); err != nil {
		t.Fatal(err)
	}
	if res, _ := rep.finalize(false); res.Correct || !strings.Contains(out.String(), "exact-count mismatch: planted") {
		t.Errorf("flagged exact count not reported as incorrect\n%s", out.String())
	}
}

// TestPercentileNeverExceedsMax pins the raw-sample percentile rule.
func TestPercentileNeverExceedsMax(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	if got := percentile(xs, 99); got != 9 {
		t.Errorf("p99 = %v, want the maximum 9", got)
	}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
}
