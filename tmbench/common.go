package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/fft"
	"repro/internal/prune"
	"repro/internal/server"
	"repro/internal/table"
)

// endpoint is one of the program's HTTP handlers served on a loopback
// listener behind a tracing layer.
type endpoint struct {
	front *layer
	hs    *http.Server
	url   string
	done  chan error
}

func serveHandler(name string, h http.Handler, tr *tracer, plantAt int64) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &layer{name: name, h: h, tr: tr, plantAt: plantAt}
	e := &endpoint{
		front: l,
		hs:    &http.Server{Handler: l, ReadHeaderTimeout: 10 * time.Second},
		url:   "http://" + ln.Addr().String(),
		done:  make(chan error, 1),
	}
	go func() { e.done <- e.hs.Serve(ln) }()
	return e, nil
}

// close drains the listener and waits for Serve to return.
func (e *endpoint) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// procSample is the process's CPU and allocation counters.
type procSample struct {
	cpu            time.Duration // user + system
	allocs, bytes  uint64
	gcCPU, totalCP float64
}

var procMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := procSample{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	ms := make([]metrics.Sample, len(procMetrics))
	for i, n := range procMetrics {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocs = ms[0].Value.Uint64()
	s.bytes = ms[1].Value.Uint64()
	s.gcCPU = ms[2].Value.Float64()
	s.totalCP = ms[3].Value.Float64()
	return s
}

// procDelta is the change of the allocation and GC counters over a
// phase.
type procDelta struct {
	allocs, bytes float64
	gcFraction    float64
}

func deltaProc(a, b procSample) procDelta {
	d := procDelta{allocs: float64(b.allocs - a.allocs), bytes: float64(b.bytes - a.bytes)}
	if tot := b.totalCP - a.totalCP; tot > 0 {
		d.gcFraction = (b.gcCPU - a.gcCPU) / tot
	}
	return d
}

// heapMB forces a collection and reports the live heap in MB. The
// second collection empties the sync.Pool victim caches the first one
// only demoted, so the figure does not depend on what they held.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// reportHeap sets heap_mb: the live heap after set-up minus inputMB, the
// live heap measured after the benchmark generated its inputs and before
// the first set-up, so the figure is the serving stack's own heap.
func reportHeap(rep *report, inputMB float64) {
	after := heapMB()
	rep.set("heap_mb", after-inputMB)
	rep.note("heap_mb %.4f = %.4f MB live after set-up - %.4f MB of benchmark inputs", after-inputMB, after, inputMB)
}

// calibrateFFT times one fixed fft.Plan2D correlation on fixed input
// (median of repeats, µs): a host-speed yardstick recorded at the start
// and end of every run, so drift between hosts shows in the record.
func calibrateFFT() float64 {
	const rows, cols, ka, kb, reps = 64, 256, 8, 8, 41
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = float64((i*7919)%1000) / 1000
	}
	kernel := make([]float64, ka*kb)
	for i := range kernel {
		kernel[i] = float64((i*104729)%97) / 97
	}
	plan := fft.NewPlan2D(data, rows, cols)
	for i := 0; i < 5; i++ {
		plan.CorrelateValid(kernel, ka, kb) // warm the scratch pool and caches
	}
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		plan.CorrelateValid(kernel, ka, kb)
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(times)
}

// window is the length of the sub-windows gen.qps and cpu_us_per_query are
// medians over: a median of per-window figures shrugs off the bursts of
// CPU contention a shared host injects into a whole-run average. On
// ingest-serve one day is due per window, so every window holds about
// one day's ingest work.
const window = time.Second

// phase is one timed stretch of a closed loop with its process and
// serving-counter deltas.
type phase struct {
	res   *loopResult
	proc  procDelta
	srv   server.Stats
	w     time.Duration   // sub-window length
	cpuAt []time.Duration // process CPU at each sub-window boundary
}

func runPhase(lp *loop, d time.Duration) *phase {
	n := max(1, int(d/window))
	p := &phase{w: d / time.Duration(n), cpuAt: make([]time.Duration, n+1)}
	s0, st0 := sampleProc(), server.ReadStats()
	start := time.Now()
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := range p.cpuAt {
			time.Sleep(time.Until(start.Add(time.Duration(i) * p.w)))
			p.cpuAt[i] = sampleProc().cpu
		}
	}()
	p.res = lp.run(start, d)
	<-sampled
	s1, st1 := sampleProc(), server.ReadStats()
	p.proc, p.srv = deltaProc(s0, s1), subStats(st1, st0)
	return p
}

// windows returns the per-sub-window throughput (queries/s) and CPU per
// served query (µs).
func (p *phase) windows() (qps, cpuPerQuery []float64) {
	served := p.res.windowServed(p.w, len(p.cpuAt)-1)
	for i, n := range served {
		qps = append(qps, n/p.w.Seconds())
		if n > 0 {
			cpuPerQuery = append(cpuPerQuery, float64((p.cpuAt[i+1]-p.cpuAt[i]).Microseconds())/n)
		}
	}
	return qps, cpuPerQuery
}

// subStats is the change of the counters reportShares reads.
func subStats(a, b server.Stats) server.Stats {
	return server.Stats{Requests: a.Requests - b.Requests, Shed: a.Shed - b.Shed, Degraded: a.Degraded - b.Degraded}
}

// phases runs the timed window: the whole window untraced, or — for a
// traced run — an untraced first half (the comparison point for the
// tracing overhead and the source of counter-based layer metrics) and a
// traced second half.
func phases(opts options, lp *loop, tr *tracer) (plain, traced *phase) {
	total := time.Duration(opts.seconds * float64(time.Second))
	if !opts.trace {
		return runPhase(lp, total), nil
	}
	plain = runPhase(lp, total/2)
	tr.on.Store(true)
	traced = runPhase(lp, total/2)
	tr.on.Store(false)
	return plain, traced
}

// reportEndToEnd sets the latency, throughput and CPU metrics of p.
func reportEndToEnd(rep *report, p *phase) {
	acc := &p.res.acc
	qps, cpu := p.windows()
	rep.set("gen.qps", median(qps))
	rep.set("cpu_us_per_query", median(cpu))
	rep.set("latency_p75_ms", percentile(acc.latMS, 75))
	rep.set("gen.latency_p50_ms", median(acc.latMS))
	rep.set("gen.latency_p99_ms", percentile(acc.latMS, 99))
	rep.note("latency max %.4g ms over %d requests; %d queries served in %d windows of %v",
		percentile(acc.latMS, 100), len(acc.latMS), acc.served, len(qps), p.w)
	rep.note("latency p10 %.4g p25 %.4g p90 %.4g ms", percentile(acc.latMS, 10),
		percentile(acc.latMS, 25), percentile(acc.latMS, 90))
	rep.note("window qps %.0f", qps)
	rep.note("window cpu_us_per_query %.0f", cpu)
}

// reportRuntime sets the runtime layer metrics of an untraced phase.
func reportRuntime(rep *report, p *phase) {
	if n := float64(p.res.acc.served); n > 0 {
		rep.set("runtime.allocs_per_query", p.proc.allocs/n)
		rep.set("runtime.bytes_per_query", p.proc.bytes/n)
	}
	rep.set("runtime.gc_cpu_fraction", p.proc.gcFraction)
	rep.set("gen.lateness_p99_ms", percentile(p.res.acc.lateMS, 99))
}

// reportTrace sets the tracing overhead and span accounting.
func reportTrace(rep *report, plain, traced *phase, a *analysis) {
	overhead := 1e3 * (median(traced.res.acc.latMS) - median(plain.res.acc.latMS))
	rep.set("trace.overhead_us", overhead)
	rep.set("trace.self_sum_ratio", a.selfSumRatio())
	rep.set("trace.spans", float64(len(a.spans)))
	client := a.stats("client")
	rep.note("traced: %d client spans, mean client span %.1f us, tracing overhead %.2f us on the median request",
		client.count, client.meanUS, overhead)
}

// query is one read of the query-exact mix.
type query struct {
	op   string // "nearest", "assign" or "distance"
	a, b table.Rect
}

// The query mix follows the repository's mixed-operation replay scenario
// (internal/replay/testdata/mixed-coord.json): nearest, distance and
// assign weighted 3:2:1, tiles zipf-drawn with s=1.2 over a seeded
// permutation of the grid. Unlike internal/replay (v=1), the zipf offset
// is v=8: with v=1 about a quarter of all queries hit one tile, so a
// run's cost hangs on which tile its seed makes hot, and the seed-to-seed
// spread of qps and cpu_us_per_query came out above the bounds.
const (
	zipfS = 1.2
	zipfV = 8
)

// genMix draws n queries over grid tiles. Every block of six queries
// holds exactly three nearest, two distance and one assign query in
// seeded order, so each run sends the weights exactly.
func genMix(rng *rand.Rand, grid *table.Grid, n int) []query {
	perm := rng.Perm(grid.NumTiles())
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(grid.NumTiles()-1))
	tile := func() table.Rect { return grid.Rect(perm[z.Uint64()]) }
	block := []string{"nearest", "nearest", "nearest", "distance", "distance", "assign"}
	qs := make([]query, n)
	for i := range qs {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		qs[i] = query{op: block[i%len(block)], a: tile()}
		if qs[i].op == "distance" {
			qs[i].b = tile()
		}
	}
	return qs
}

// requestsFor encodes queries as mode=auto GETs.
func requestsFor(qs []query) []request {
	reqs := make([]request, len(qs))
	for i, q := range qs {
		var path string
		switch q.op {
		case "distance":
			path = fmt.Sprintf("/v1/distance?a=%s&b=%s&mode=auto", server.FormatRect(q.a), server.FormatRect(q.b))
		default:
			path = fmt.Sprintf("/v1/%s?q=%s&mode=auto", q.op, server.FormatRect(q.a))
		}
		reqs[i] = request{method: http.MethodGet, path: path, items: 1}
	}
	return reqs
}

// exactAnswer is the oracle for a mode=auto answer on the exact tier:
// the bytes the server must send, built from the reference snapshot's
// full-scan ExactNearest / ExactAssign / ExactDistance, with the prune
// block (which the auto tier attaches) taken from the reference's own
// exact-margin scan. Also returns the prune statistics.
func exactAnswer(ctx context.Context, ref *server.Snapshot, grid *table.Grid, q query) ([]byte, *prune.Stats, error) {
	var v any
	var stats *prune.Stats
	switch q.op {
	case "nearest":
		idx, d, err := ref.ExactNearest(ctx, q.a, 0)
		if err != nil {
			return nil, nil, err
		}
		pidx, pd, st, err := ref.ProgressiveNearest(ctx, q.a, 0, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		if pidx != idx || pd != d {
			return nil, nil, fmt.Errorf("exact-margin nearest(%v) = %d/%v, full scan %d/%v", q.a, pidx, pd, idx, d)
		}
		v, stats = &server.NearestResult{Tile: idx, Rect: server.FormatRect(grid.Rect(idx)), Distance: d,
			Tier: server.TierExact, Prune: pruneBlock(st)}, &st
	case "assign":
		c, m, d, err := ref.ExactAssign(ctx, q.a)
		if err != nil {
			return nil, nil, err
		}
		pc, pm, pd, st, err := ref.ProgressiveAssign(ctx, q.a, 0, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		if pc != c || pm != m || pd != d {
			return nil, nil, fmt.Errorf("exact-margin assign(%v) = %d/%d/%v, full scan %d/%d/%v", q.a, pc, pm, pd, c, m, d)
		}
		v, stats = &server.AssignResult{Cluster: c, Medoid: m, Distance: d, Tier: server.TierExact,
			Prune: pruneBlock(st)}, &st
	default:
		d, err := ref.ExactDistance(ctx, q.a, q.b, 0)
		if err != nil {
			return nil, nil, err
		}
		v = &server.DistanceResult{Distance: d, Tier: server.TierExact}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, nil, err
	}
	return append(b, '\n'), stats, nil
}

// sketchAnswer is the oracle for an auto query the server degraded to
// the sketch tier (for reason "load" or "deadline"): the bytes
// SketchNearest / SketchAssign / SketchDistance give on the reference.
func sketchAnswer(ctx context.Context, ref *server.Snapshot, grid *table.Grid, q query, reason string) ([]byte, error) {
	var v any
	switch q.op {
	case "nearest":
		idx, d, err := ref.SketchNearest(ctx, q.a)
		if err != nil {
			return nil, err
		}
		v = &server.NearestResult{Tile: idx, Rect: server.FormatRect(grid.Rect(idx)), Distance: d,
			Tier: server.TierSketch, Degraded: true, Reason: reason}
	case "assign":
		c, m, d, err := ref.SketchAssign(ctx, q.a)
		if err != nil {
			return nil, err
		}
		v = &server.AssignResult{Cluster: c, Medoid: m, Distance: d, Tier: server.TierSketch, Degraded: true, Reason: reason}
	default:
		d, err := ref.SketchDistance(q.a, q.b)
		if err != nil {
			return nil, err
		}
		v = &server.DistanceResult{Distance: d, Tier: server.TierSketch, Degraded: true, Reason: reason}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// matchesReference reports whether body is the reference's answer to q:
// the exact-tier bytes, or — for an answer the server degraded under
// load or deadline pressure — the sketch-tier bytes.
func matchesReference(ctx context.Context, ref *server.Snapshot, grid *table.Grid, q query, exact, body []byte) bool {
	if bytes.Equal(body, exact) {
		return true
	}
	var tags struct{ Tier, Reason string }
	if json.Unmarshal(body, &tags) != nil || tags.Tier != server.TierSketch ||
		(tags.Reason != server.ReasonLoad && tags.Reason != server.ReasonDeadline) {
		return false
	}
	want, err := sketchAnswer(ctx, ref, grid, q, tags.Reason)
	return err == nil && bytes.Equal(body, want)
}

// pruneBlock is the wire form of exact-margin scan statistics.
func pruneBlock(st prune.Stats) *server.PruneStats {
	return &server.PruneStats{
		Margin:     server.MarginExact,
		Candidates: st.Candidates, ScreenSurvivors: st.ScreenSurvivors,
		PrunedCandidates: st.PrunedCandidates, RefineAbandoned: st.RefineAbandoned,
		LanesEvaluated: st.LanesEvaluated, CellsEvaluated: st.CellsEvaluated,
		CoordinatesTotal: st.CoordinatesTotal, PrunedCoordinates: st.PrunedCoordinates(),
	}
}

// replayKernels times the auto tier's exact kernels on sn directly
// (the first n queries, one at a time) and reports snapshot.*_us, the
// exact-margin prune statistics, and core.sketch_us. It returns the
// mean kernel time per op and the coordinates the scans evaluated.
func replayKernels(rep *report, sn *server.Snapshot, qs []query, n int) (map[string]float64, int64, error) {
	ctx := context.Background()
	n = min(n, len(qs))
	sum, cnt := map[string]float64{}, map[string]float64{}
	var coords, total, pruned, survivors, scans int64
	for _, q := range qs[:n] {
		t0 := time.Now()
		var st prune.Stats
		var err error
		switch q.op {
		case "nearest":
			_, _, st, err = sn.ProgressiveNearest(ctx, q.a, 0, nil, 0)
		case "assign":
			_, _, _, st, err = sn.ProgressiveAssign(ctx, q.a, 0, nil, 0)
		default:
			_, err = sn.ExactDistance(ctx, q.a, q.b, 0)
		}
		if err != nil {
			return nil, 0, err
		}
		sum[q.op] += float64(time.Since(t0).Nanoseconds()) / 1e3
		cnt[q.op]++
		if q.op != "distance" {
			scans++
			coords += st.CoordinatesEvaluated()
			total += st.CoordinatesTotal
			pruned += st.PrunedCoordinates()
			survivors += int64(st.ScreenSurvivors)
		}
	}
	kernel := map[string]float64{}
	for _, op := range []string{"nearest", "assign", "distance"} {
		if cnt[op] > 0 {
			kernel[op] = sum[op] / cnt[op]
			rep.set("snapshot."+op+"_us", kernel[op])
		}
	}
	if scans > 0 {
		rep.set("prune.coords_per_query", float64(coords)/float64(scans))
		rep.set("prune.pruned_fraction", float64(pruned)/float64(total))
		rep.set("prune.screen_survivors_per_query", float64(survivors)/float64(scans))
	}
	// core.sketch_us: the O(k) Pool.Sketch of each query rectangle.
	pool := sn.Pool()
	buf := make([]float64, pool.K())
	t0 := time.Now()
	calls := 0
	for rounds := 0; rounds < 20; rounds++ {
		for _, q := range qs[:n] {
			if _, err := pool.Sketch(q.a, buf); err != nil {
				return nil, 0, err
			}
			calls++
		}
	}
	rep.set("core.sketch_us", float64(time.Since(t0).Nanoseconds())/1e3/float64(calls))
	return kernel, coords, nil
}

// kernelMean weights per-op kernel times by how often a phase sent
// each query.
func kernelMean(kernel map[string]float64, qs []query, seen map[int64]int64) float64 {
	var t, n float64
	for key, c := range seen {
		t += kernel[qs[keyIdx(key)].op] * float64(c)
		n += float64(c)
	}
	if n == 0 {
		return 0
	}
	return t / n
}
