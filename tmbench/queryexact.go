package main

import (
	"context"
	"math/bits"
	"math/rand/v2"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/prune"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/workload"
)

// setupReps is how many times each run builds its serving stack; the
// median is setup_s, and the builds double as an in-run repeat check
// of the FFT correlation count.
const setupReps = 9

// qeSize sizes the query-exact workload.
type qeSize struct {
	stations, days, tile, k, clusters int
	queries, replay                   int
	warmup                            time.Duration
}

func qeSizes(tiny bool) qeSize {
	if tiny {
		return qeSize{stations: 16, days: 1, tile: 8, k: 16, clusters: 3, queries: 256, replay: 64, warmup: 50 * time.Millisecond}
	}
	return qeSize{stations: 64, days: 3, tile: 8, k: 32, clusters: 8, queries: 4096, replay: 1024, warmup: 500 * time.Millisecond}
}

// tilePoolOptions pools exactly the tile's dyadic size: every query of
// the mix is one grid tile.
func tilePoolOptions(tile int) core.PoolOptions {
	lg := bits.Len(uint(tile)) - 1
	return core.PoolOptions{MinLogRows: lg, MaxLogRows: lg, MinLogCols: lg, MaxLogCols: lg}
}

// buildStats is what one build of a pool and snapshot cost.
type buildStats struct {
	correlations, spectra int64
	poolS, snapS          float64
}

// buildSnapshot builds a pool and snapshot over tb, counting FFT work.
func buildSnapshot(tb *table.Table, k int, seed uint64, popts core.PoolOptions, scfg server.SnapshotConfig) (*server.Snapshot, buildStats, error) {
	var bs buildStats
	c0, s0 := fft.CorrelationCount(), fft.TableSpectrumCount()
	t0 := time.Now()
	pool, err := core.NewPool(tb, 1, k, seed, popts)
	if err != nil {
		return nil, bs, err
	}
	bs.poolS = since(t0)
	bs.correlations, bs.spectra = fft.CorrelationCount()-c0, fft.TableSpectrumCount()-s0
	t1 := time.Now()
	sn, err := server.BuildSnapshot(context.Background(), tb, pool, scfg)
	bs.snapS = since(t1)
	return sn, bs, err
}

// reportBuilds sets the FFT and snapshot-build layer metrics from the
// set-up builds and flags a correlation count that did not repeat.
func reportBuilds(rep *report, builds []buildStats, days int) {
	var pools, snaps []float64
	for _, b := range builds {
		if b.correlations != builds[0].correlations || b.spectra != builds[0].spectra {
			rep.countMismatch("set-up builds ran %d and %d FFT correlations", builds[0].correlations, b.correlations)
		}
		pools = append(pools, b.poolS)
		snaps = append(snaps, b.snapS)
	}
	b := builds[0]
	rep.set("fft.correlations_per_day", float64(b.correlations)/float64(days))
	rep.set("fft.table_spectra_per_day", float64(b.spectra)/float64(days))
	if b.correlations > 0 {
		rep.set("fft.ns_per_correlation", median(pools)*1e9/float64(b.correlations))
	}
	rep.set("server.build_snapshot_s", median(snaps))
}

// timeKMedoids times cluster.KMedoids over the tile sketches (from
// Pool.Sketch) with the snapshot's clustering parameters, in seconds.
func timeKMedoids(pool *core.Pool, grid *table.Grid, clusters int, seed uint64) (float64, error) {
	points := make([][]float64, grid.NumTiles())
	for i := range points {
		sk, err := pool.Sketch(grid.Rect(i), nil)
		if err != nil {
			return 0, err
		}
		points[i] = sk
	}
	t0 := time.Now()
	_, err := cluster.KMedoids(points, pool.SketchDist(), cluster.Config{
		K: clusters, Seed: seed, Init: cluster.InitPlusPlus, Workers: -1,
	})
	return since(t0), err
}

// qeStack is one query-exact serving stack.
type qeStack struct {
	sn *server.Snapshot
	ep *endpoint
}

func runQueryExact(opts options, rep *report) error {
	sz := qeSizes(opts.tiny)
	ctx := context.Background()
	tb, _, err := workload.CallVolume(workload.CallVolumeConfig{Stations: sz.stations, Days: sz.days, Seed: opts.seed})
	if err != nil {
		return err
	}
	grid, err := table.NewGrid(tb.Rows(), tb.Cols(), sz.tile, sz.tile)
	if err != nil {
		return err
	}
	popts := tilePoolOptions(sz.tile)
	scfg := server.SnapshotConfig{TileRows: sz.tile, TileCols: sz.tile, Clusters: sz.clusters, Seed: opts.seed}
	qs := genMix(rand.New(rand.NewPCG(opts.seed, 0x9e3779b9)), grid, sz.queries)
	inputMB := heapMB()

	// Set-up, several times: build pool and snapshot, start the server,
	// wait until it answers /readyz. The last stack serves the run.
	var setups []float64
	var builds []buildStats
	var st *qeStack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.ep.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		sn, bs, err := buildSnapshot(tb, sz.k, opts.seed, popts, scfg)
		if err != nil {
			return err
		}
		srv, err := server.New(sn, server.Config{})
		if err != nil {
			return err
		}
		plant := int64(0)
		if i == setupReps-1 {
			plant = opts.plantWrong
		}
		ep, err := serveHandler("server.handler", srv.Handler(), rep.tr, plant)
		if err != nil {
			return err
		}
		probe := newClient(ep.url)
		err = probe.waitReady("/readyz", 30*time.Second)
		probe.close()
		if err != nil {
			return err
		}
		setups = append(setups, since(t0))
		builds = append(builds, bs)
		st = &qeStack{sn: sn, ep: ep}
	}
	defer st.ep.close()
	rep.set("setup_s", median(setups))
	rep.note("setup_s repeats %v", setups)
	reportHeap(rep, inputMB)
	reportBuilds(rep, builds, sz.days)

	// The oracle: an identically built reference snapshot.
	ref, _, err := buildSnapshot(tb, sz.k, opts.seed, popts, scfg)
	if err != nil {
		return err
	}
	expected := make([][]byte, len(qs))
	var refCoords int64 // coordinates the reference's scans of the replayed queries evaluated
	for i, q := range qs {
		var st *prune.Stats
		if expected[i], st, err = exactAnswer(ctx, ref, grid, q); err != nil {
			return err
		}
		if st != nil && i < sz.replay {
			refCoords += st.CoordinatesEvaluated()
		}
	}
	check := func(key int64, body []byte) (int, string) {
		q := qs[keyIdx(key)]
		if !matchesReference(ctx, ref, grid, q, expected[keyIdx(key)], body) {
			return 1, q.op + " differs from the reference answer"
		}
		return 0, ""
	}

	// One connection: on a shared 2-CPU host a second one measured the
	// scheduler and the neighbours more than the server.
	c := newClient(st.ep.url)
	defer c.close()
	lp := &loop{client: c, reqs: requestsFor(qs), tr: rep.tr}
	warm := lp.run(time.Now(), sz.warmup)
	plain, traced := phases(opts, lp, rep.tr)
	for _, r := range []*loopResult{warm, plain.res, phaseRes(traced)} {
		if r != nil {
			r.verify(check)
			r.account(rep)
		}
	}

	reportEndToEnd(rep, plain)
	acc := &plain.res.acc
	if acc.served > 0 {
		rep.set("server.exact_share", float64(acc.exact)/float64(acc.served))
	}
	reportRuntime(rep, plain)
	reportShares(rep, plain.srv)
	// prune.coords_per_query is a pure function of the seed: the served
	// snapshot's scans must evaluate exactly the coordinates the
	// independently built reference's did.
	kernel, coords, err := replayKernels(rep, st.sn, qs, sz.replay)
	if err != nil {
		return err
	}
	if coords != refCoords {
		rep.countMismatch("prune scans evaluated %d coordinates on the served snapshot, %d on the reference", coords, refCoords)
	}
	kmed, err := timeKMedoids(st.sn.Pool(), grid, sz.clusters, opts.seed)
	if err != nil {
		return err
	}
	rep.set("cluster.kmedoids_s", kmed)
	if opts.trace {
		a := analyse(rep.tr.snapshot())
		handler, client := a.stats("server.handler"), a.stats("client")
		rep.set("server.handler_us", handler.meanUS)
		rep.set("server.overhead_us", handler.meanUS-kernelMean(kernel, qs, traced.res.acc.seen))
		rep.set("http.transport_us", client.meanSelf)
		reportTrace(rep, plain, traced, a)
	}
	if n := st.ep.front.requests.Load(); n > 0 {
		rep.set("server.resp_bytes_per_query", float64(st.ep.front.bytes.Load())/float64(n))
	}
	return nil
}

// reportShares sets the server's tier and shedding shares from a
// phase's ReadStats delta.
func reportShares(rep *report, s server.Stats) {
	if s.Requests > 0 {
		rep.set("server.degraded_share", float64(s.Degraded)/float64(s.Requests))
		rep.set("server.shed_share", float64(s.Shed)/float64(s.Requests))
	}
}

func phaseRes(p *phase) *loopResult {
	if p == nil {
		return nil
	}
	return p.res
}
