// Package tabmine is the public API of this reproduction of Cormode,
// Indyk, Koudas & Muthukrishnan, "Fast Mining of Massive Tabular Data via
// Approximate Distance Computations" (ICDE 2002).
//
// The library mines massive tabular data (station × time call volumes,
// host × time traffic matrices, ...) by replacing the expensive inner
// operation — the Lp distance between two subtables — with small
// p-stable sketches:
//
//   - Table holds dense tabular data; Grid partitions it into the tiles
//     mining algorithms operate on; ReadTable/WriteTable persist tables as
//     (optionally gzip-compressed) flat files, ReadCSV/WriteCSV
//     interoperate with text tools.
//   - Sketcher builds Lp sketches for a fixed tile size, for any
//     p ∈ (0, 2] — classical p = 1, 2 or the fractional p the paper
//     advocates — with the (1±ε) estimation guarantee of Theorems 1–2.
//   - Sketcher.AllPositions precomputes sketches for every tile position
//     of a table in O(k·N·log N) via FFT (Theorem 3); Pool does the same
//     for a canonical family of dyadic tile sizes and answers sketch and
//     distance queries for arbitrary rectangles in O(k) (Theorems 5–6).
//   - Cache implements sketch-on-demand (Section 4.4's second scenario).
//   - KMeans clusters tiles under any distance — exact Lp via P, or
//     sketched — and the evaluation helpers (Cumulative, Average,
//     Pairwise, Agreement, Quality) score estimators and clusterings the
//     way the paper's Section 4.1 does.
//
// A minimal end-to-end flow:
//
//	tb, _, _ := tabmine.GenerateCallVolume(tabmine.CallVolumeConfig{Stations: 192, Days: 4, Seed: 1})
//	grid, _ := tabmine.NewGrid(tb.Rows(), tb.Cols(), 16, 144)
//	tiles := grid.Tiles(tb)
//	sk, _ := tabmine.NewSketcher(0.5, 128, 16, 144, 1, tabmine.EstimatorAuto)
//	points := make([][]float64, len(tiles))
//	for i, tile := range tiles {
//		points[i] = sk.Sketch(tile, nil)
//	}
//	res, _ := tabmine.KMeans(points, sk.Distance, tabmine.KMeansConfig{K: 20, Seed: 1})
//	_ = res.Assign // tile -> cluster
//
// # Concurrency
//
// The hot paths fan out over a shared worker-pool layer with a strict
// determinism contract: per-matrix and per-point results are written to
// disjoint pre-allocated slots, never combined by a scheduling-dependent
// reduction, so the same seed yields byte-identical sketches and cluster
// assignments at ANY worker count. The knobs:
//
//   - Sketcher.SetWorkers bounds the fan-out of Sketch and AllPositions
//     over the k random matrices (0, the default, means all cores).
//   - PoolOptions.Workers bounds dyadic plane-set construction.
//   - KMeansConfig.Workers parallelizes the assignment step of KMeans and
//     KMedoids; it defaults to 0 = serial because the dist callback must
//     be safe for concurrent use before fanning out — use
//     Sketcher.ConcurrentDist (reentrant, allocation-free) or any pure
//     function such as P.Dist, and set Workers < 0 for all cores.
//
// Sketcher (after SetWorkers), Pool, PlaneSet, HashSketcher and the
// evaluation helpers are safe for concurrent use. Cache and TileSketchSet
// mutate internal state on use and are single-goroutine only.
//
// # Fault tolerance
//
// Long-running entry points take an optional context for cooperative
// cancellation: Sketcher.AllPositionsCtx, PoolOptions.Context (NewPool),
// and KMeansConfig.Context (KMeans, KMedoids). A cancelled run returns
// the context's error promptly and publishes no partial state; a run
// that completes is byte-identical whether or not a context was set. A
// panic on a worker goroutine is recovered and returned as a
// *PanicError (carrying the panic value and worker stack) instead of
// crashing the process.
//
// Persistence is crash-safe and self-checking: SavePoolFile and
// SavePlaneSetFile replace snapshots atomically (temp file + fsync +
// rename), snapshot sections carry CRC32C checksums verified on load
// (corruption surfaces as ErrSnapshotChecksum; files in the retired
// v1 and v2 formats fail as unsupported versions), and Store appends day files atomically with
// checksums recorded in the manifest — Store.Fsck verifies and repairs
// a store after a crash or disk corruption.
//
// See the examples/ directory for complete programs and DESIGN.md for how
// each component maps onto the paper.
package tabmine

import (
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalmetrics"
	"repro/internal/lpnorm"
	"repro/internal/parallel"
	"repro/internal/series"
	"repro/internal/stable"
	"repro/internal/tabfile"
	"repro/internal/table"
	"repro/internal/tabstore"
	"repro/internal/vizascii"
	"repro/internal/workload"
)

// DefaultWorkers returns the worker count a Workers knob of 0 resolves to
// — runtime.GOMAXPROCS(0). Every concurrent path in the library accepts a
// Workers setting with this default and produces byte-identical results
// at any value (see the package-level Concurrency section).
func DefaultWorkers() int { return parallel.Resolve(0) }

// Table is a dense rows×cols table of float64 values.
type Table = table.Table

// Rect identifies a subtable rectangle.
type Rect = table.Rect

// Grid partitions a table into equal tiles.
type Grid = table.Grid

// Stats summarizes a table.
type Stats = table.Stats

// NewTable allocates a zeroed rows×cols table.
func NewTable(rows, cols int) *Table { return table.New(rows, cols) }

// TableFromData wraps a row-major slice as a table without copying.
func TableFromData(rows, cols int, data []float64) (*Table, error) {
	return table.FromData(rows, cols, data)
}

// TableFromRows copies a slice of equal-length rows into a table.
func TableFromRows(rows [][]float64) (*Table, error) { return table.FromRows(rows) }

// NewGrid describes tiling a tableRows×tableCols table into
// tileRows×tileCols tiles.
func NewGrid(tableRows, tableCols, tileRows, tileCols int) (*Grid, error) {
	return table.NewGrid(tableRows, tableCols, tileRows, tileCols)
}

// Stitch concatenates tables along the time axis (e.g. consecutive days).
func Stitch(tables ...*Table) (*Table, error) { return table.Stitch(tables...) }

// ReadTable reads a binary table file written by WriteTable.
func ReadTable(r io.Reader) (*Table, error) { return tabfile.Read(r) }

// WriteTable writes a table as a binary flat file, gzipped if compress.
func WriteTable(w io.Writer, t *Table, compress bool) error { return tabfile.Write(w, t, compress) }

// ReadTableFile and WriteTableFile are the path-based variants.
func ReadTableFile(path string) (*Table, error) { return tabfile.ReadFile(path) }

// WriteTableFile writes a table to path in the binary format.
func WriteTableFile(path string, t *Table, compress bool) error {
	return tabfile.WriteFile(path, t, compress)
}

// ReadCSV parses numeric CSV into a table; WriteCSV does the reverse.
func ReadCSV(r io.Reader) (*Table, error) { return tabfile.ReadCSV(r) }

// WriteCSV emits a table as CSV.
func WriteCSV(w io.Writer, t *Table) error { return tabfile.WriteCSV(w, t) }

// P is a validated Lp exponent providing exact norms and distances.
type P = lpnorm.P

// NewP validates an Lp exponent in (0, 2].
func NewP(p float64) (P, error) { return lpnorm.NewP(p) }

// MustP is NewP that panics on error.
func MustP(p float64) P { return lpnorm.MustP(p) }

// Hamming counts differing entries (the p → 0 limit).
func Hamming(x, y []float64) int { return lpnorm.Hamming(x, y) }

// Estimator selects the sketch distance estimator.
type Estimator = core.Estimator

// Estimator choices (see core docs): Auto picks the paper's behaviour.
const (
	EstimatorAuto   = core.EstimatorAuto
	EstimatorMedian = core.EstimatorMedian
	EstimatorL2     = core.EstimatorL2
)

// Sketcher builds Lp sketches for one tile size.
type Sketcher = core.Sketcher

// PlaneSet holds precomputed sketches for every tile position.
type PlaneSet = core.PlaneSet

// TablePlan is the shared frequency-domain correlation plan of one table:
// its padded forward FFT spectrum, computed once and reused read-only by
// every Sketcher.AllPositionsPlan call over that table. Build one when
// several plane sets cover the same table (multiple tile sizes or sketch
// sets) — Pool and IntervalPool construction do this internally. Safe for
// concurrent use.
type TablePlan = core.TablePlan

// NewTablePlan computes the shared correlation plan of t (one forward
// table FFT at the padded power-of-two size).
func NewTablePlan(t *Table) *TablePlan { return core.NewTablePlan(t) }

// Pool holds plane sets for canonical dyadic sizes and answers arbitrary-
// rectangle sketch queries via compound sketches.
type Pool = core.Pool

// PoolOptions configures the dyadic size range of a Pool.
type PoolOptions = core.PoolOptions

// Cache memoizes sketches computed on demand. It mutates internal state
// on every query and is documented single-goroutine: do not share one
// Cache across goroutines (unlike Sketcher, Pool and PlaneSet, which are
// safe for concurrent use).
type Cache = core.Cache

// NewSketcher builds a Sketcher for p ∈ (0,2] with k entries over
// rows×cols tiles.
func NewSketcher(p float64, k, rows, cols int, seed uint64, estimator Estimator) (*Sketcher, error) {
	return core.NewSketcher(p, k, rows, cols, seed, estimator)
}

// NewPool precomputes dyadic sketch plane sets over t (Theorem 6).
func NewPool(t *Table, p float64, k int, seed uint64, opts PoolOptions) (*Pool, error) {
	return core.NewPool(t, p, k, seed, opts)
}

// DefaultPoolOptions covers every dyadic size fitting t.
func DefaultPoolOptions(t *Table) PoolOptions { return core.DefaultPoolOptions(t) }

// NewCache wraps t with sketch-on-demand behaviour.
func NewCache(t *Table, sk *Sketcher) *Cache { return core.NewCache(t, sk) }

// KForAccuracy sizes a sketch for a (1±eps) guarantee at confidence
// 1-delta.
func KForAccuracy(eps, delta float64) (int, error) { return core.KForAccuracy(eps, delta) }

// KForAccuracyAtP sizes a sketch for a (1±eps) guarantee at confidence
// 1-delta with the exact p-dependent constant (computed from the stable
// law's CDF; p ≥ 0.3). Prefer this over KForAccuracy for fractional p —
// the generic constant undersizes heavy-tailed sketches by an order of
// magnitude at p = 0.5.
func KForAccuracyAtP(p, eps, delta float64) (int, error) {
	return core.KForAccuracyAtP(p, eps, delta)
}

// StableDist samples symmetric α-stable distributions (the randomness
// behind sketches), exported for reuse in custom estimators.
type StableDist = stable.Dist

// NewStableDist returns the symmetric α-stable distribution for
// alpha ∈ (0, 2].
func NewStableDist(alpha float64) (*StableDist, error) { return stable.New(alpha) }

// StableMedianAbs returns the estimator scaling factor B(α).
func StableMedianAbs(alpha float64) float64 { return stable.MedianAbs(alpha) }

// KMeansConfig configures a clustering run.
type KMeansConfig = cluster.Config

// KMeansResult reports a clustering.
type KMeansResult = cluster.Result

// DistFunc measures distance between two equal-length points.
type DistFunc = cluster.DistFunc

// Init methods for KMeans.
const (
	InitRandom   = cluster.InitRandom
	InitPlusPlus = cluster.InitPlusPlus
)

// KMeans clusters points under dist (exact or sketched).
func KMeans(points [][]float64, dist DistFunc, cfg KMeansConfig) (*KMeansResult, error) {
	return cluster.KMeans(points, dist, cfg)
}

// Spread sums each point's distance to its cluster centroid.
func Spread(points [][]float64, assign []int, centroids [][]float64, dist DistFunc) float64 {
	return cluster.Spread(points, assign, centroids, dist)
}

// CentroidsOf rebuilds mean centroids for an existing assignment.
func CentroidsOf(points [][]float64, assign []int, k int) [][]float64 {
	return cluster.CentroidsOf(points, assign, k)
}

// Accuracy measures of Section 4.1 (Definitions 7–11).
var (
	// Cumulative is Σ estimated / Σ exact (Definition 7).
	Cumulative = evalmetrics.Cumulative
	// Average is the mean per-experiment relative agreement (Definition 8).
	Average = evalmetrics.Average
	// Pairwise scores "closer to Y or Z?" agreement (Definition 9).
	Pairwise = evalmetrics.Pairwise
	// Agreement is the matched confusion-matrix diagonal (Definition 10).
	Agreement = evalmetrics.Agreement
	// Quality is the exact/sketch spread ratio (Definition 11).
	Quality = evalmetrics.Quality
)

// Triple is one pairwise-comparison experiment for Pairwise.
type Triple = evalmetrics.Triple

// CallVolumeConfig parameterizes the synthetic call-volume generator.
type CallVolumeConfig = workload.CallVolumeConfig

// CallVolumeMeta describes the generated structure.
type CallVolumeMeta = workload.CallVolumeMeta

// SixRegionsConfig parameterizes the planted-clustering dataset.
type SixRegionsConfig = workload.SixRegionsConfig

// SixRegions is the planted-clustering dataset with ground truth.
type SixRegions = workload.SixRegions

// GenerateCallVolume builds a synthetic station×time call-volume table
// (see DESIGN.md for how it substitutes for the paper's AT&T data).
func GenerateCallVolume(cfg CallVolumeConfig) (*Table, *CallVolumeMeta, error) {
	return workload.CallVolume(cfg)
}

// GenerateSixRegions builds the six-region synthetic dataset of §4.2.
func GenerateSixRegions(cfg SixRegionsConfig) (*SixRegions, error) {
	return workload.NewSixRegions(cfg)
}

// BucketsPerDay is the paper's time resolution (10-minute buckets).
const BucketsPerDay = workload.BucketsPerDay

// Linkage selects the agglomerative merge criterion.
type Linkage = cluster.Linkage

// Linkage choices for Agglomerative.
const (
	SingleLinkage   = cluster.SingleLinkage
	CompleteLinkage = cluster.CompleteLinkage
	AverageLinkage  = cluster.AverageLinkage
)

// Merge is one dendrogram step produced by Agglomerative.
type Merge = cluster.Merge

// KMedoids clusters points around medoids (actual data points) — the
// mean-free alternative to KMeans, well-defined for any distance
// including sketched fractional-p distances.
func KMedoids(points [][]float64, dist DistFunc, cfg KMeansConfig) (*KMeansResult, error) {
	return cluster.KMedoids(points, dist, cfg)
}

// Agglomerative builds a bottom-up hierarchical clustering and returns
// the dendrogram merges; CutDendrogram flattens it to k clusters.
func Agglomerative(points [][]float64, dist DistFunc, linkage Linkage) ([]Merge, error) {
	return cluster.Agglomerative(points, dist, linkage)
}

// CutDendrogram flattens a dendrogram over n points into k cluster labels.
func CutDendrogram(merges []Merge, n, k int) ([]int, error) {
	return cluster.CutDendrogram(merges, n, k)
}

// TileSketchSet maintains per-tile sketches under streaming point updates
// in O(k) per update.
type TileSketchSet = core.TileSketchSet

// NewTileSketchSet sketches every tile of t under g and keeps the
// sketches current as cells change.
func NewTileSketchSet(t *Table, g *Grid, sk *Sketcher) (*TileSketchSet, error) {
	return core.NewTileSketchSet(t, g, sk)
}

// IntervalPool answers Lp distance queries over arbitrary windows of a
// one-dimensional time series (the paper's 1D predecessor machinery).
type IntervalPool = series.IntervalPool

// NewIntervalPool precomputes dyadic window sketches over x.
func NewIntervalPool(x []float64, p float64, k int, seed uint64, minLog, maxLog int) (*IntervalPool, error) {
	return series.NewIntervalPool(x, p, k, seed, minLog, maxLog)
}

// Store is a day-partitioned on-disk table store (one binary table file
// per day plus a manifest); days load individually or stitched.
type Store = tabstore.Store

// OpenStore opens or initializes a store rooted at dir.
func OpenStore(dir string) (*Store, error) { return tabstore.Open(dir) }

// ClusterMap renders a tile-grid clustering as ASCII art or PNG (the
// Figure 5 medium).
type ClusterMap = vizascii.Map

// HashSketcher generates sketch randomness on demand from a hash, so
// sketches of turnstile streams are maintainable in O(k) memory without
// storing random matrices (Indyk's streaming setting, reference [12]).
type HashSketcher = core.HashSketcher

// Stream is a sketch maintained under point updates, created by
// HashSketcher.NewStream.
type Stream = core.Stream

// NewHashSketcher builds a hash-based sketcher over a domain of dim
// positions.
func NewHashSketcher(p float64, k, dim int, seed uint64, estimator Estimator) (*HashSketcher, error) {
	return core.NewHashSketcher(p, k, dim, seed, estimator)
}

// External clustering indices beyond the paper's Definition 10, both
// label-permutation invariant:
var (
	// AdjustedRand is the chance-corrected Rand index (1 identical,
	// ~0 independent).
	AdjustedRand = evalmetrics.AdjustedRand
	// NMI is normalized mutual information (1 identical, 0 independent).
	NMI = evalmetrics.NMI
)

// StableMedianAbsAnalytic computes B(α) by Fourier inversion of the
// characteristic function (exact up to quadrature tolerance); available
// for α ≥ 0.3. StableMedianAbs dispatches to it automatically.
func StableMedianAbsAnalytic(alpha float64) (float64, error) {
	return stable.MedianAbsAnalytic(alpha)
}

// TrafficConfig parameterizes the synthetic router-traffic generator.
type TrafficConfig = workload.TrafficConfig

// GenerateTraffic builds a synthetic host×time traffic table (the
// paper's IP-router motivating application).
func GenerateTraffic(cfg TrafficConfig) (*Table, error) { return workload.Traffic(cfg) }

// Silhouette computes the mean silhouette coefficient of a clustering —
// an internal quality measure requiring no ground truth.
var Silhouette = cluster.Silhouette

// BestOf reruns a stochastic clustering with derived seeds and returns
// the run with the smallest spread (the algorithm's own objective).
var BestOf = cluster.BestOf

// Row-normalization preprocessing (the paper's "dilation, scaling and
// other operations ... before computing the L1 or L2 norms"):
var (
	// ScaleRows multiplies each row by its own factor.
	ScaleRows = table.ScaleRows
	// CenterRows subtracts each row's mean.
	CenterRows = table.CenterRows
	// UnitRows scales rows to unit Euclidean norm.
	UnitRows = table.UnitRows
	// StandardizeRows centers and unit-variance-scales each row.
	StandardizeRows = table.StandardizeRows
	// ClampNonNegative zeroes negative cells.
	ClampNonNegative = table.ClampNonNegative
)

// Sketch persistence: precomputed pools and plane sets save to compact
// binary files and load without recomputing any correlations (random
// matrices regenerate from the recorded seeds). Snapshot sections are
// CRC32C-checksummed; loads of corrupted files fail with an error
// wrapping ErrSnapshotChecksum rather than returning wrong distances.
var (
	// SavePool serializes a dyadic sketch pool.
	SavePool = core.SavePool
	// LoadPool deserializes a pool saved with SavePool.
	LoadPool = core.LoadPool
	// SavePlaneSet serializes one all-positions plane set.
	SavePlaneSet = core.SavePlaneSet
	// LoadPlaneSet deserializes a plane set saved with SavePlaneSet.
	LoadPlaneSet = core.LoadPlaneSet
	// SavePoolFile writes a pool snapshot to a path atomically (temp
	// file + fsync + rename): a crash or error mid-save leaves any
	// previous snapshot at the path intact, never a torn file.
	SavePoolFile = core.SavePoolFile
	// LoadPoolFile reads a pool snapshot from a path.
	LoadPoolFile = core.LoadPoolFile
	// SavePlaneSetFile writes a plane-set snapshot atomically.
	SavePlaneSetFile = core.SavePlaneSetFile
	// LoadPlaneSetFile reads a plane-set snapshot from a path.
	LoadPlaneSetFile = core.LoadPlaneSetFile
)

// ErrSnapshotChecksum is wrapped by snapshot-load errors caused by a
// CRC32C mismatch or an internally inconsistent section length — i.e.
// the file is corrupt, not merely from an unsupported version. Check
// with errors.Is.
var ErrSnapshotChecksum = core.ErrChecksum

// ErrNonFinite is wrapped by table constructors, normalizers, and the
// file readers when a cell (or scale factor) is NaN or ±Inf: non-finite
// values are rejected at ingress because they would silently poison
// every sketch derived from the table. Check with errors.Is.
var ErrNonFinite = table.ErrNonFinite

// PanicError is how a panic on a worker goroutine surfaces from the
// context-aware entry points (NewPool with a Context, AllPositionsCtx,
// KMeans/KMedoids with a Context): recovered, wrapped with the worker's
// stack, and returned as an error. Check with errors.As.
type PanicError = parallel.PanicError

// StoreFsckReport is what Store.Fsck found and repaired.
type StoreFsckReport = tabstore.FsckReport

// ChooseK selects the cluster count in [kMin, kMax] maximizing the
// silhouette coefficient over best-of-restart k-means runs.
var ChooseK = cluster.ChooseK
