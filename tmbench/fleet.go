package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/workload"
)

// fsSize sizes the fleet-sketch workload.
type fsSize struct {
	stations, days        int
	tileRows, tileCols    int
	k, clusters           int
	batches, items, probe int
	warmup                time.Duration
}

func fsSizes(tiny bool) fsSize {
	if tiny {
		return fsSize{stations: 16, days: 1, tileRows: 8, tileCols: 12, k: 16, clusters: 2,
			batches: 32, items: 4, probe: 8, warmup: 50 * time.Millisecond}
	}
	return fsSize{stations: 32, days: 4, tileRows: 8, tileCols: 12, k: 32, clusters: 4,
		batches: 512, items: 16, probe: 32, warmup: 500 * time.Millisecond}
}

// fleetPoolOptions pools dyadic extents 4 and 8 on both axes, so every
// rect of 4..16 rows and columns is sketchable (non-dyadic ones as
// Theorem 5 compounds) on the shards and the unsharded reference alike.
var fleetPoolOptions = core.PoolOptions{MinLogRows: 2, MaxLogRows: 3, MinLogCols: 2, MaxLogCols: 3}

// fleetItem is one query of a batch with its expected answer.
type fleetItem struct {
	nearest bool
	a, b    table.Rect // distance operands; a is the nearest query
	chunksA []table.Rect
	chunksB []table.Rect
	// expected answer from the unsharded reference
	dist float64
	tile int
	rect string
}

// chunk cuts a and b at every shard boundary either crosses, exactly as
// the coordinator's cross-shard sketch merge does, so each chunk of a
// (and the equal-width chunk of b) lies on one shard.
func chunk(a, b table.Rect, bounds []int) ([]table.Rect, []table.Rect) {
	offs := map[int]bool{}
	for _, r := range []table.Rect{a, b} {
		for _, e := range bounds {
			if off := e - r.C0; off > 0 && off < r.Cols {
				offs[off] = true
			}
		}
	}
	cuts := []int{0}
	for off := range offs {
		cuts = append(cuts, off)
	}
	sort.Ints(cuts)
	cuts = append(cuts, a.Cols)
	var ca, cb []table.Rect
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		ca = append(ca, table.Rect{R0: a.R0, C0: a.C0 + lo, Rows: a.Rows, Cols: hi - lo})
		cb = append(cb, table.Rect{R0: b.R0, C0: b.C0 + lo, Rows: b.Rows, Cols: hi - lo})
	}
	return ca, cb
}

// nonDyadic draws an extent in [5, hi] that is not a power of two.
func nonDyadic(rng *rand.Rand, hi int) int {
	for {
		if n := 5 + rng.IntN(hi-4); n&(n-1) != 0 {
			return n
		}
	}
}

// genFleetItems draws the batch list. Every block of five batches holds
// three nearest and two distance batches in seeded order: the 3:2
// nearest:distance weights of the repository's coordinator replay
// scenario. Distance batches pair arbitrary non-dyadic rects, every
// fourth pair with its first rect across the shard cut; nearest batches
// hold tile-sized queries at arbitrary offsets within one shard. Every
// item's chunks are checked sketchable on the reference pool.
func genFleetItems(rng *rand.Rand, sz fsSize, rows, cols, cut int, ref *core.Pool) [][]fleetItem {
	bounds := []int{0, cut, cols}
	block := []bool{true, true, true, false, false} // nearest?
	batches := make([][]fleetItem, sz.batches)
	for bi := range batches {
		if bi%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		for len(batches[bi]) < sz.items {
			if block[bi%len(block)] {
				q := table.Rect{R0: rng.IntN(rows - sz.tileRows + 1), Rows: sz.tileRows, Cols: sz.tileCols}
				if rng.IntN(2) == 0 {
					q.C0 = rng.IntN(cut - sz.tileCols + 1)
				} else {
					q.C0 = cut + rng.IntN(cols-cut-sz.tileCols+1)
				}
				batches[bi] = append(batches[bi], fleetItem{nearest: true, a: q})
				continue
			}
			spanning := len(batches[bi])%4 == 0
			h, w := nonDyadic(rng, min(15, rows)), nonDyadic(rng, 15)
			for spanning && w < 9 {
				w = nonDyadic(rng, 15)
			}
			a := table.Rect{R0: rng.IntN(rows - h + 1), C0: rng.IntN(cols - w + 1), Rows: h, Cols: w}
			if spanning {
				a.C0 = cut - w + 4 + rng.IntN(w-7) // both sides of the cut at least 4 wide
			}
			b := table.Rect{R0: rng.IntN(rows - h + 1), C0: rng.IntN(cols - w + 1), Rows: h, Cols: w}
			it := fleetItem{a: a, b: b}
			it.chunksA, it.chunksB = chunk(a, b, bounds)
			ok := true
			for i := range it.chunksA {
				if ref.CanSketch(it.chunksA[i]) != nil || ref.CanSketch(it.chunksB[i]) != nil {
					ok = false
				}
			}
			if ok {
				batches[bi] = append(batches[bi], it)
			}
		}
	}
	return batches
}

// fleetExpect fills each item's expected answer from the unsharded
// reference: nearest from SketchNearest, distance from the lane-wise
// sum of the reference pool's chunk sketches (Pool.Sketch) under the
// pool estimator — the coordinator's merge algebra on one pool.
func fleetExpect(ref *server.Snapshot, grid *table.Grid, batches [][]fleetItem) error {
	pool := ref.Pool()
	sdist := pool.SketchDist()
	for _, b := range batches {
		for i := range b {
			it := &b[i]
			if it.nearest {
				idx, d, err := ref.SketchNearest(context.Background(), it.a)
				if err != nil {
					return err
				}
				it.tile, it.dist, it.rect = idx, d, server.FormatRect(grid.Rect(idx))
				continue
			}
			sa, sb := make([]float64, pool.K()), make([]float64, pool.K())
			for c := range it.chunksA {
				ka, err := pool.Sketch(it.chunksA[c], nil)
				if err != nil {
					return err
				}
				kb, err := pool.Sketch(it.chunksB[c], nil)
				if err != nil {
					return err
				}
				for l := range sa {
					sa[l] += ka[l]
					sb[l] += kb[l]
				}
			}
			it.dist = sdist(sa, sb)
		}
	}
	return nil
}

// fleetRequests encodes each batch as a mode=sketch batch POST.
func fleetRequests(batches [][]fleetItem) ([]request, error) {
	reqs := make([]request, len(batches))
	for i, b := range batches {
		req := server.BatchRequest{Mode: server.ModeSketch}
		path := "/v1/batch/distance"
		for _, it := range b {
			if it.nearest {
				path = "/v1/batch/nearest"
				req.Items = append(req.Items, server.BatchItem{Q: server.FormatRect(it.a)})
			} else {
				req.Items = append(req.Items, server.BatchItem{A: server.FormatRect(it.a), B: server.FormatRect(it.b)})
			}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		reqs[i] = request{method: http.MethodPost, path: path, body: body, items: len(b)}
	}
	return reqs, nil
}

// closeEnough is the fleet's FP contract: shards run their own FFT
// builds, so distances agree with the unsharded reference to 1e-9
// relative, not bitwise.
func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

// checkFleetBody counts the wrong items of one batch answer.
func checkFleetBody(items []fleetItem, body []byte) (int, string) {
	var resp server.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Items) != len(items) {
		return len(items), "undecodable batch answer"
	}
	wrong, why := 0, ""
	for i, raw := range resp.Items {
		var got struct {
			Error    string  `json:"error"`
			Distance float64 `json:"distance"`
			Tile     int     `json:"tile"`
			Rect     string  `json:"rect"`
			Tier     string  `json:"tier"`
			Reason   string  `json:"reason"`
			Degraded bool    `json:"degraded"`
			Partial  bool    `json:"partial"`
		}
		it := items[i]
		switch {
		case json.Unmarshal(raw, &got) != nil || got.Error != "":
			why = "batch item failed: " + got.Error
		case got.Tier != server.TierSketch || got.Reason != server.ReasonRequested || got.Degraded || got.Partial:
			why = fmt.Sprintf("unexpected tags %s", raw)
		case !closeEnough(got.Distance, it.dist):
			why = fmt.Sprintf("distance %v, reference %v", got.Distance, it.dist)
		case it.nearest && (got.Tile != it.tile || got.Rect != it.rect):
			why = fmt.Sprintf("nearest tile %d, reference %d", got.Tile, it.tile)
		default:
			continue
		}
		wrong++
	}
	return wrong, why
}

// fleet is one coordinator over two column shards.
type fleet struct {
	shards []*server.Snapshot
	eps    []*endpoint
	co     *coord.Coordinator
	front  *endpoint
}

func (f *fleet) close() error {
	err := f.front.close()
	f.co.Close()
	for _, ep := range f.eps {
		if cerr := ep.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// shardRequests is how many requests the shard handlers have served.
func (f *fleet) shardRequests() int64 {
	var n int64
	for _, ep := range f.eps {
		n += ep.front.requests.Load()
	}
	return n
}

// buildFleet builds both shards, serves them, and starts a coordinator
// that discovers them; it returns once the coordinator is ready.
func buildFleet(tb *table.Table, cut int, sz fsSize, seed uint64, tr *tracer, plant int64) (*fleet, buildStats, error) {
	var total buildStats
	f := &fleet{}
	scfg := server.SnapshotConfig{TileRows: sz.tileRows, TileCols: sz.tileCols, Clusters: sz.clusters, Seed: seed}
	for _, span := range [][2]int{{0, cut}, {cut, tb.Cols()}} {
		sub := tb.Sub(table.Rect{R0: 0, C0: span[0], Rows: tb.Rows(), Cols: span[1] - span[0]})
		popts := fleetPoolOptions
		popts.BaseCol = span[0]
		sn, bs, err := buildSnapshot(sub, sz.k, seed, popts, scfg)
		if err != nil {
			return nil, total, err
		}
		total.correlations += bs.correlations
		total.spectra += bs.spectra
		total.poolS += bs.poolS
		total.snapS += bs.snapS
		srv, err := server.New(sn, server.Config{})
		if err != nil {
			return nil, total, err
		}
		ep, err := serveHandler("server.handler", srv.Handler(), tr, 0)
		if err != nil {
			return nil, total, err
		}
		f.shards = append(f.shards, sn)
		f.eps = append(f.eps, ep)
	}
	co, err := coord.New(coord.Config{Endpoints: []string{f.eps[0].url, f.eps[1].url}})
	if err != nil {
		return nil, total, err
	}
	f.co = co
	if f.front, err = serveHandler("coord.handler", co.Handler(), tr, plant); err != nil {
		return nil, total, err
	}
	probe := newClient(f.front.url)
	defer probe.close()
	return f, total, probe.waitReady("/readyz", 30*time.Second)
}

func runFleetSketch(opts options, rep *report) error {
	sz := fsSizes(opts.tiny)
	tb, _, err := workload.CallVolume(workload.CallVolumeConfig{Stations: sz.stations, Days: sz.days, Seed: opts.seed})
	if err != nil {
		return err
	}
	cut := tb.Cols() / 2
	grid, err := table.NewGrid(tb.Rows(), tb.Cols(), sz.tileRows, sz.tileCols)
	if err != nil {
		return err
	}

	inputMB := heapMB()
	var setups []float64
	var builds []buildStats
	var f *fleet
	for i := 0; i < setupReps; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return err
			}
		}
		plant := int64(0)
		if i == setupReps-1 {
			plant = opts.plantWrong
		}
		t0 := time.Now()
		var bs buildStats
		if f, bs, err = buildFleet(tb, cut, sz, opts.seed, rep.tr, plant); err != nil {
			return err
		}
		setups = append(setups, since(t0))
		builds = append(builds, bs)
	}
	defer f.close()
	rep.set("setup_s", median(setups))
	rep.note("setup_s repeats %v", setups)
	reportHeap(rep, inputMB)
	reportBuilds(rep, builds, sz.days)

	// The oracle: the unsharded reference over the whole table.
	ref, _, err := buildSnapshot(tb, sz.k, opts.seed, fleetPoolOptions, server.SnapshotConfig{
		TileRows: sz.tileRows, TileCols: sz.tileCols, Clusters: sz.clusters, Seed: opts.seed})
	if err != nil {
		return err
	}
	batches := genFleetItems(rand.New(rand.NewPCG(opts.seed, 0xf1ee7)), sz, tb.Rows(), tb.Cols(), cut, ref.Pool())
	if err := fleetExpect(ref, grid, batches); err != nil {
		return err
	}
	reqs, err := fleetRequests(batches)
	if err != nil {
		return err
	}
	check := func(key int64, body []byte) (int, string) { return checkFleetBody(batches[keyIdx(key)], body) }

	// One connection, as on query-exact. The coordinator does not
	// forward span ids, so it also lets a traced run name each shard
	// span's parent by time containment: the span lies inside exactly
	// one coordinator span.
	c := newClient(f.front.url)
	defer c.close()
	co0 := coord.ReadStats()
	lp := &loop{client: c, reqs: reqs, tr: rep.tr}
	warm := lp.run(time.Now(), sz.warmup)
	plain, traced := phases(opts, lp, rep.tr)
	co1 := coord.ReadStats()
	for _, r := range []*loopResult{warm, plain.res, phaseRes(traced)} {
		if r != nil {
			r.verify(check)
			r.account(rep)
		}
	}
	reportEndToEnd(rep, plain)
	reportRuntime(rep, plain)
	reportShares(rep, plain.srv)
	rep.set("coord.hedges", float64(co1.Hedges-co0.Hedges))
	rep.set("coord.hedge_wins", float64(co1.HedgeWins-co0.HedgeWins))
	if n := f.front.front.requests.Load(); n > 0 {
		rep.set("server.resp_bytes_per_query", float64(f.front.front.bytes.Load())/float64(n*int64(sz.items)))
	}

	// Sub-queries per coordinator request: the first probe batches sent
	// one at a time, twice; the count must repeat exactly.
	probe := newClient(f.front.url)
	defer probe.close()
	var perReq []float64
	for round := 0; round < 2; round++ {
		before := f.shardRequests()
		var buf bytes.Buffer
		for i, req := range reqs[:min(sz.probe, len(reqs))] {
			code, err := probe.do(req, &buf, 0)
			rep.ops(int64(req.items), 0, "")
			if err != nil || code != http.StatusOK {
				rep.ops(0, int64(req.items), fmt.Sprintf("probe batch failed (status %d, %v)", code, err))
			} else if wrong, why := checkFleetBody(batches[i], buf.Bytes()); wrong > 0 {
				rep.ops(0, int64(wrong), "wrong probe answer: "+why)
			}
		}
		perReq = append(perReq, float64(f.shardRequests()-before)/float64(min(sz.probe, len(reqs))))
	}
	if perReq[0] != perReq[1] {
		rep.countMismatch("coord.subqueries_per_request %v then %v", perReq[0], perReq[1])
	}
	rep.set("coord.subqueries_per_request", perReq[0])

	// Kernel replay: the merge algebra's Pool.Sketch calls and nearest
	// scans on the reference, the work the shards do for these items.
	kernelUS, sketchUS := replayFleetKernels(ref, batches[:min(sz.probe, len(batches))])
	rep.set("core.sketch_us", sketchUS)
	var kmed float64
	for _, sn := range f.shards {
		sg, err := table.NewGrid(sn.Table().Rows(), sn.Table().Cols(), sz.tileRows, sz.tileCols)
		if err != nil {
			return err
		}
		secs, err := timeKMedoids(sn.Pool(), sg, sz.clusters, opts.seed)
		if err != nil {
			return err
		}
		kmed += secs
	}
	rep.set("cluster.kmedoids_s", kmed)
	if opts.trace {
		a := analyse(rep.tr.snapshot(), containment{"server.handler", "coord.handler"})
		co, shard, client := a.stats("coord.handler"), a.stats("server.handler"), a.stats("client")
		rep.set("coord.handler_us", co.meanUS)
		rep.set("coord.shard_us", co.childSum)
		rep.set("coord.self_us", co.meanSelf)
		rep.set("server.handler_us", shard.meanUS)
		if perReq[0] > 0 {
			rep.set("server.overhead_us", shard.meanUS-kernelUS/(perReq[0]*float64(min(sz.probe, len(reqs)))))
		}
		rep.set("http.transport_us", client.meanSelf)
		rep.note("coordinator spans: %d; shard spans with more than one containing coordinator span: %d", co.count, a.ambiguous)
		reportTrace(rep, plain, traced, a)
	}
	return nil
}

// replayFleetKernels times, on the reference, the sketch and scan work
// behind the given batches: it returns the total kernel time (µs) and
// the mean time of one Pool.Sketch call (µs).
func replayFleetKernels(ref *server.Snapshot, batches [][]fleetItem) (totalUS, sketchUS float64) {
	pool := ref.Pool()
	sdist := pool.SketchDist()
	buf := make([]float64, pool.K())
	sa, sb := make([]float64, pool.K()), make([]float64, pool.K())
	var rects []table.Rect
	t0 := time.Now()
	for _, b := range batches {
		for _, it := range b {
			if it.nearest {
				qsk, _ := pool.Sketch(it.a, buf)
				q := it.a
				_, _, _ = ref.SketchNearestVec(context.Background(), qsk, &q)
				rects = append(rects, it.a)
				continue
			}
			clear(sa)
			clear(sb)
			for c := range it.chunksA {
				ka, _ := pool.Sketch(it.chunksA[c], buf)
				for l := range sa {
					sa[l] += ka[l]
				}
				kb, _ := pool.Sketch(it.chunksB[c], buf)
				for l := range sb {
					sb[l] += kb[l]
				}
			}
			sdist(sa, sb)
			rects = append(rects, it.chunksA...)
			rects = append(rects, it.chunksB...)
		}
	}
	totalUS = float64(time.Since(t0).Nanoseconds()) / 1e3
	const rounds = 20
	t1 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, rect := range rects {
			pool.Sketch(rect, buf)
		}
	}
	if len(rects) > 0 {
		sketchUS = float64(time.Since(t1).Nanoseconds()) / 1e3 / float64(rounds*len(rects))
	}
	return totalUS, sketchUS
}
