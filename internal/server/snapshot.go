package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lpnorm"
	"repro/internal/parallel"
	"repro/internal/prune"
	"repro/internal/table"
)

// SnapshotConfig parameterizes BuildSnapshot's derived query state.
type SnapshotConfig struct {
	// TileRows, TileCols set the grid tile size /v1/nearest and
	// /v1/assign operate on. Both must be pool-sketchable extents.
	TileRows, TileCols int
	// Clusters is the k of the k-medoids clustering over tile sketches
	// backing /v1/assign. 0 disables clustering (assign answers 404).
	Clusters int
	// Seed drives the clustering initialization.
	Seed uint64
	// Workers bounds goroutines during the build (tile sketching and
	// clustering). 0 means all cores. Results are identical regardless.
	Workers int
}

// Snapshot is the immutable state one server generation answers queries
// from: the table, its dyadic sketch pool, the tile grid with
// precomputed pool sketches, and a medoid clustering of the tiles. All
// methods are safe for concurrent use; the serving path swaps whole
// snapshots atomically (Server.Swap) and never mutates one.
type Snapshot struct {
	tb    *table.Table
	pool  *core.Pool
	lp    lpnorm.P
	sdist func(a, b []float64) float64 // O(k) pool-sketch distance

	grid     *table.Grid
	tiles    []table.Rect
	sketches [][]float64 // pool sketch per tile

	clusters    int
	assign      []int        // tile -> cluster
	medoids     []int        // cluster -> tile index of its medoid
	medoidRects []table.Rect // cluster -> medoid tile rectangle

	// Progressive-pruning state: the worst-case overcount of a tile's
	// pool sketch (1 when tiles are exactly dyadic, Theorem 5's compound
	// slack otherwise) and a memoized prune.Plan per delta. The cache is
	// the one mutable corner of a Snapshot; planFor guards it — plans
	// themselves are immutable and deterministic, so memoization never
	// changes an answer.
	compoundSlack float64
	planMu        sync.Mutex
	plans         map[float64]*prune.Plan

	// skBuf recycles k-length query-sketch buffers across requests, so
	// the sketch-tier and progressive paths allocate O(1) steady-state.
	// Like the plan cache it never changes an answer: buffers are fully
	// overwritten by Pool.Sketch before use and returned afterwards.
	skBuf sync.Pool

	// refs counts who may still read the snapshot: the owner reference
	// BuildSnapshot creates (transferred to the server by Swap) plus one
	// Retain per in-flight request. When it reaches zero the onRelease
	// closers run — ingest-published snapshots release their segstore.View
	// there, which is what keeps a compaction from unmapping bytes a
	// query is still reading. Heap-backed snapshots have no closers and
	// the count is inert.
	refs      atomic.Int64
	onRelease []func()
}

// OnRelease registers fn to run once when the snapshot's reference
// count reaches zero. Must be called before the snapshot is published
// (closers are not synchronized with Retain/Release).
func (sn *Snapshot) OnRelease(fn func()) { sn.onRelease = append(sn.onRelease, fn) }

// Retain adds a reference. The serving path calls it under the
// server's acquire lock; other owners (tests, the ingester) may call it
// any time they already hold a reference.
func (sn *Snapshot) Retain() { sn.refs.Add(1) }

// Release drops a reference, running the onRelease closers at zero.
// Zero is final: the snapshot must not be used afterwards.
func (sn *Snapshot) Release() {
	if n := sn.refs.Add(-1); n > 0 {
		return
	} else if n < 0 {
		panic("server: snapshot reference count went negative")
	}
	for _, fn := range sn.onRelease {
		fn()
	}
}

// getSketchBuf hands out a k-capacity buffer for Pool.Sketch.
func (sn *Snapshot) getSketchBuf() *[]float64 {
	if bp, ok := sn.skBuf.Get().(*[]float64); ok {
		return bp
	}
	buf := make([]float64, sn.pool.K())
	return &buf
}

func (sn *Snapshot) putSketchBuf(bp *[]float64) { sn.skBuf.Put(bp) }

// BuildSnapshot derives the serving state from a table and its sketch
// pool. The pool must have been built over exactly tb (dimensions are
// checked); tb must be finite (non-finite cells are rejected with
// table.ErrNonFinite, satisfying the ingress-hardening contract even
// for tables constructed in process). The context cancels the build —
// tile sketching and clustering poll it through the parallel layer.
func BuildSnapshot(ctx context.Context, tb *table.Table, pool *core.Pool, cfg SnapshotConfig) (*Snapshot, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := table.CheckFinite(tb); err != nil {
		return nil, err
	}
	if pr, pc := pool.TableDims(); pr != tb.Rows() || pc != tb.Cols() {
		return nil, fmt.Errorf("server: pool built over %dx%d, table is %dx%d",
			pr, pc, tb.Rows(), tb.Cols())
	}
	lp, err := lpnorm.NewP(pool.P())
	if err != nil {
		return nil, err
	}
	grid, err := table.NewGrid(tb.Rows(), tb.Cols(), cfg.TileRows, cfg.TileCols)
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{
		tb: tb, pool: pool, lp: lp, sdist: pool.SketchDist(),
		grid: grid, clusters: cfg.Clusters,
	}
	sn.refs.Store(1) // the owner reference; Swap takes it over
	sn.tiles = make([]table.Rect, grid.NumTiles())
	for i := range sn.tiles {
		sn.tiles[i] = grid.Rect(i)
	}
	if err := pool.CanSketch(sn.tiles[0]); err != nil {
		return nil, fmt.Errorf("server: tile size not pool-sketchable: %w", err)
	}
	sn.compoundSlack = 1
	if !pool.IsExact(sn.tiles[0]) {
		// Compound sketches overcount the true distance by at most 4×
		// for any p (Theorem 5: each cell difference appears with
		// multiplicity m ≤ 4, and (Σ mᵢ^p|dᵢ|^p)^(1/p) ≤ 4·(Σ|dᵢ|^p)^(1/p)),
		// and never undercount — the slack the confidence screen must
		// grant before eliminating a candidate.
		sn.compoundSlack = 4
	}

	// Pool sketches per tile: disjoint slots, deterministic at any
	// worker count, cancellable between tiles.
	sn.sketches = make([][]float64, len(sn.tiles))
	if err := parallel.ForCtx(ctx, parallel.Resolve(cfg.Workers), len(sn.tiles), func(i int) {
		sk, err := pool.Sketch(sn.tiles[i], nil)
		if err != nil {
			panic(err) // ruled out by the CanSketch check above
		}
		sn.sketches[i] = sk
	}); err != nil {
		return nil, err
	}

	if cfg.Clusters > 0 {
		workers := cfg.Workers
		if workers == 0 {
			workers = -1 // cluster.Config: negative means all cores
		}
		res, err := cluster.KMedoids(sn.sketches, sn.sdist, cluster.Config{
			K: cfg.Clusters, Seed: cfg.Seed, Init: cluster.InitPlusPlus,
			Workers: workers, Context: ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("server: clustering tiles: %w", err)
		}
		sn.assign = res.Assign
		sn.medoids = make([]int, cfg.Clusters)
		sn.medoidRects = make([]table.Rect, cfg.Clusters)
		for c, cent := range res.Centroids {
			// Medoids are actual points, so the centroid vector matches
			// some tile sketch bit-for-bit; lowest index wins on ties.
			idx := -1
			for i, s := range sn.sketches {
				if floatsEqual(s, cent) {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("server: medoid %d not found among tile sketches", c)
			}
			sn.medoids[c] = idx
			sn.medoidRects[c] = sn.tiles[idx]
		}
	}
	return sn, nil
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Table returns the snapshot's table.
func (sn *Snapshot) Table() *table.Table { return sn.tb }

// Pool returns the snapshot's sketch pool.
func (sn *Snapshot) Pool() *core.Pool { return sn.pool }

// NumTiles returns the grid tile count.
func (sn *Snapshot) NumTiles() int { return len(sn.tiles) }

// Clusters returns the cluster count (0 when clustering is disabled).
func (sn *Snapshot) Clusters() int { return sn.clusters }

// TileRows returns the grid tile height (rows per tile).
func (sn *Snapshot) TileRows() int { return sn.grid.TileRows() }

// TileCols returns the grid tile width (columns per tile).
func (sn *Snapshot) TileCols() int { return sn.grid.TileCols() }

// validRect rejects rectangles outside the table.
func (sn *Snapshot) validRect(r table.Rect) error {
	if !r.In(sn.tb.Rows(), sn.tb.Cols()) {
		return fmt.Errorf("rect %v outside table %dx%d", r, sn.tb.Rows(), sn.tb.Cols())
	}
	return nil
}

// rectRow returns row r of rect as a slice aliasing the table storage.
func (sn *Snapshot) rectRow(rect table.Rect, r int) []float64 {
	off := (rect.R0+r)*sn.tb.Cols() + rect.C0
	return sn.tb.Data()[off : off+rect.Cols]
}

// ExactDistance computes the exact Lp distance between two equal-size
// rectangles, fanning the per-row power sums out over the parallel
// layer: the request deadline propagates as ctx (polled between row
// blocks) and the reduction is worker-count invariant, so answers are
// byte-identical at any worker count or load level.
func (sn *Snapshot) ExactDistance(ctx context.Context, a, b table.Rect, workers int) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("distance between different-size rects %v and %v", a, b)
	}
	sum, err := parallel.SumCtx(ctx, parallel.Resolve(workers), a.Rows, func(r int) float64 {
		return sn.lp.DistPowSum(sn.rectRow(a, r), sn.rectRow(b, r))
	})
	if err != nil {
		return 0, err
	}
	return math.Pow(sum, 1/sn.lp.Value()), nil
}

// SketchDistance answers the same query from the pool's compound dyadic
// sketches in O(k) — Theorem 6's degraded tier. Scratch comes from the
// snapshot's buffer pool; the estimate is bit-identical to
// Pool.Distance (same sketches, same estimator arithmetic).
func (sn *Snapshot) SketchDistance(a, b table.Rect) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("core: distance between different-size rects %v and %v", a, b)
	}
	ba, bb := sn.getSketchBuf(), sn.getSketchBuf()
	defer sn.putSketchBuf(ba)
	defer sn.putSketchBuf(bb)
	sa, err := sn.pool.Sketch(a, *ba)
	if err != nil {
		return 0, err
	}
	sb, err := sn.pool.Sketch(b, *bb)
	if err != nil {
		return 0, err
	}
	return sn.sdist(sa, sb), nil
}

// SketchDistanceBatch answers n sketch-tier distance queries in one
// lane-major estimator sweep (core.Pool.DistanceBatch): result i is
// bit-identical to SketchDistance(as[i], bs[i]). Callers validate the
// rects up front; the first invalid pair aborts the batch.
func (sn *Snapshot) SketchDistanceBatch(as, bs []table.Rect, dst []float64) ([]float64, error) {
	return sn.pool.DistanceBatch(as, bs, dst)
}

// ctxStride is how many O(k) sketch comparisons run between context
// polls on the serial scan paths.
const ctxStride = 64

// ExactNearest scans every grid tile (excluding q's own position) for
// the smallest exact Lp distance to q. Per-tile distances land in
// disjoint slots via ForCtx; the lowest-index argmin makes ties
// deterministic.
func (sn *Snapshot) ExactNearest(ctx context.Context, q table.Rect, workers int) (int, float64, error) {
	if err := sn.checkTileSized(q); err != nil {
		return 0, 0, err
	}
	dists := make([]float64, len(sn.tiles))
	if err := parallel.ForCtx(ctx, parallel.Resolve(workers), len(sn.tiles), func(i int) {
		if sn.tiles[i] == q {
			dists[i] = math.Inf(1)
			return
		}
		var sum float64
		for r := 0; r < q.Rows; r++ {
			sum += sn.lp.DistPowSum(sn.rectRow(sn.tiles[i], r), sn.rectRow(q, r))
		}
		dists[i] = sum
	}); err != nil {
		return 0, 0, err
	}
	best := argmin(dists)
	if best < 0 {
		return 0, 0, fmt.Errorf("no candidate tile for %v", q)
	}
	return best, math.Pow(dists[best], 1/sn.lp.Value()), nil
}

// SketchNearest is ExactNearest on the sketch tier: one O(k) compound
// sketch of q, then O(k) estimator evaluations per tile.
func (sn *Snapshot) SketchNearest(ctx context.Context, q table.Rect) (int, float64, error) {
	if err := sn.checkTileSized(q); err != nil {
		return 0, 0, err
	}
	bq := sn.getSketchBuf()
	defer sn.putSketchBuf(bq)
	qsk, err := sn.pool.Sketch(q, *bq)
	if err != nil {
		return 0, 0, err
	}
	return sn.SketchNearestVec(ctx, qsk, &q)
}

// SketchNearestVec is the scan half of SketchNearest, taking the query
// sketch directly: the shard sub-query path (/v1/sketch/nearest) feeds
// it sketches computed by ANOTHER shard, which are comparable to the
// local tile sketches whenever (p, k, seed, estimator) match. exclude,
// when non-nil, skips the one tile at that exact rectangle — the
// query's own position on its owner shard. The scan and tie-break are
// the exact loop SketchNearest always ran, so local callers see
// byte-identical answers.
func (sn *Snapshot) SketchNearestVec(ctx context.Context, qsk []float64, exclude *table.Rect) (int, float64, error) {
	dists := make([]float64, len(sn.tiles))
	for i, tsk := range sn.sketches {
		if i%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return 0, 0, err
			}
		}
		if exclude != nil && sn.tiles[i] == *exclude {
			dists[i] = math.Inf(1)
			continue
		}
		dists[i] = sn.sdist(qsk, tsk)
	}
	best := argmin(dists)
	if best < 0 {
		return 0, 0, fmt.Errorf("no candidate tile")
	}
	return best, dists[best], nil
}

// ExactAssign returns the cluster whose medoid tile is nearest to q
// under the exact Lp distance.
func (sn *Snapshot) ExactAssign(ctx context.Context, q table.Rect) (cluster, medoid int, d float64, err error) {
	if err := sn.checkAssign(q); err != nil {
		return 0, 0, 0, err
	}
	dists := make([]float64, len(sn.medoidRects))
	for c, mr := range sn.medoidRects {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		var sum float64
		for r := 0; r < q.Rows; r++ {
			sum += sn.lp.DistPowSum(sn.rectRow(mr, r), sn.rectRow(q, r))
		}
		dists[c] = sum
	}
	best := argmin(dists)
	return best, sn.medoids[best], math.Pow(dists[best], 1/sn.lp.Value()), nil
}

// SketchAssign is ExactAssign on the sketch tier.
func (sn *Snapshot) SketchAssign(ctx context.Context, q table.Rect) (cluster, medoid int, d float64, err error) {
	if err := sn.checkAssign(q); err != nil {
		return 0, 0, 0, err
	}
	bq := sn.getSketchBuf()
	defer sn.putSketchBuf(bq)
	qsk, err := sn.pool.Sketch(q, *bq)
	if err != nil {
		return 0, 0, 0, err
	}
	return sn.SketchAssignVec(ctx, qsk)
}

// SketchAssignVec is the scan half of SketchAssign, taking the query
// sketch directly (see SketchNearestVec): the nearest local medoid to a
// sketch that may have been computed by a merge-compatible shard.
func (sn *Snapshot) SketchAssignVec(ctx context.Context, qsk []float64) (cluster, medoid int, d float64, err error) {
	if sn.clusters == 0 {
		return 0, 0, 0, errNoClusters
	}
	dists := make([]float64, len(sn.medoids))
	for c, m := range sn.medoids {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		dists[c] = sn.sdist(qsk, sn.sketches[m])
	}
	best := argmin(dists)
	return best, sn.medoids[best], dists[best], nil
}

func (sn *Snapshot) checkTileSized(q table.Rect) error {
	if err := sn.validRect(q); err != nil {
		return err
	}
	if q.Rows != sn.grid.TileRows() || q.Cols != sn.grid.TileCols() {
		return fmt.Errorf("query rect %v must match the %dx%d tile size",
			q, sn.grid.TileRows(), sn.grid.TileCols())
	}
	return nil
}

func (sn *Snapshot) checkAssign(q table.Rect) error {
	if sn.clusters == 0 {
		return errNoClusters
	}
	return sn.checkTileSized(q)
}

var errNoClusters = fmt.Errorf("snapshot built without clustering")

// argmin returns the lowest index of the smallest value, or -1 when
// every entry is +Inf (no candidates).
func argmin(xs []float64) int {
	best, bestV := -1, math.Inf(1)
	for i, v := range xs {
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best
}
