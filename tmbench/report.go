package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract with BENCHMARK.json (the test
// checks they agree): an untraced run prints every endToEnd metric, a
// traced run every perLayer metric.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p75_ms", "ms"},
	{"cpu_us_per_query", "us"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0. An untraced run prints the ones it measured on
// report lines too (among them gen.qps, gen.latency_p50_ms, gen.latency_p99_ms, server.exact_share,
// ingest.visible_*_s and ingest.push_rtt_p50_ms), but leaves them out of
// its final JSON object.
var perLayer = []metricDef{
	{"server.handler_us", "us"},
	{"server.overhead_us", "us"},
	{"server.resp_bytes_per_query", "B"},
	{"server.exact_share", "ratio"},
	{"server.degraded_share", "ratio"},
	{"server.shed_share", "ratio"},
	{"server.build_snapshot_s", "s"},
	{"snapshot.nearest_us", "us"},
	{"snapshot.assign_us", "us"},
	{"snapshot.distance_us", "us"},
	{"prune.coords_per_query", "count"},
	{"prune.pruned_fraction", "ratio"},
	{"prune.screen_survivors_per_query", "count"},
	{"coord.handler_us", "us"},
	{"coord.shard_us", "us"},
	{"coord.self_us", "us"},
	{"coord.subqueries_per_request", "count"},
	{"coord.hedges", "count"},
	{"coord.hedge_wins", "count"},
	{"core.sketch_us", "us"},
	{"cluster.kmedoids_s", "s"},
	{"ingest.ack_ms", "ms"},
	{"ingest.rebuild_s", "s"},
	{"ingest.backlog_max", "count"},
	{"ingest.visible_p50_s", "s"},
	{"ingest.visible_max_s", "s"},
	{"ingest.push_rtt_p50_ms", "ms"},
	{"ingest.days_pushed", "count"},
	{"fft.correlations_per_day", "count"},
	{"fft.table_spectra_per_day", "count"},
	{"fft.ns_per_correlation", "ns"},
	{"segstore.segments_created", "count"},
	{"segstore.compactions", "count"},
	{"segstore.bytes_disk_per_user_byte", "ratio"},
	{"segstore.bytes_mapped", "B"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.bytes_per_query", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"http.transport_us", "us"},
	{"gen.qps", "1/s"},
	{"gen.latency_p50_ms", "ms"},
	{"gen.latency_p99_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"host.calib_fft_us", "us"},
	{"trace.overhead_us", "us"},
	{"trace.self_sum_ratio", "ratio"},
	{"trace.spans", "count"},
}

// report accumulates one run's outcome.
type report struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   map[string]int64 // failure reason -> count
	values    map[string]float64
	notes     []string
	// mismatches are exact counts that did not repeat within the run.
	mismatches []string
	tr         *tracer
}

func newReport() *report {
	return &report{
		reasons: map[string]int64{},
		values:  map[string]float64{},
		tr:      newTracer(),
	}
}

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// ops counts attempted operations and the failed ones among them.
func (r *report) ops(attempted, failed int64, reason string) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		r.reasons[reason] += failed
	}
	r.mu.Unlock()
}

// countMismatch flags an exact count that failed to repeat.
func (r *report) countMismatch(format string, args ...any) {
	r.mu.Lock()
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalize builds the result object: the end-to-end set (untraced) or
// the per-layer set (traced). Layers the workload does not reach are 0.
func (r *report) finalize(traced bool) (*result, error) {
	res := &result{
		Correct:   r.failed == 0 && len(r.mismatches) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return res, nil
}

// print writes the human-readable report lines, then the JSON line.
func (r *report) print(w io.Writer, traced bool) error {
	res, err := r.finalize(traced)
	if err != nil {
		return err
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note", n)
	}
	reasons := make([]string, 0, len(r.reasons))
	for k := range r.reasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Fprintf(w, "failed %d %s\n", r.reasons[k], k)
	}
	for _, m := range r.mismatches {
		fmt.Fprintln(w, "exact-count mismatch:", m)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d (%.4g%%)\n",
		r.attempted, r.failed, 100*float64(r.failed)/math.Max(1, float64(r.attempted)))
	printDefs := func(defs []metricDef, all bool) {
		for _, d := range defs {
			if v, ok := r.values[d.name]; ok || all {
				fmt.Fprintf(w, "metric %-36s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	if traced {
		printDefs(perLayer, true)
	} else {
		printDefs(endToEnd, true)
		printDefs(perLayer, false)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, strings.TrimSpace(string(line)))
	return err
}
