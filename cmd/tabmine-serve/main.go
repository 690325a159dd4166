// Command tabmine-serve runs the resilient sketch query service: it
// loads a table (and optionally a pre-built pool snapshot), builds the
// serving snapshot — dyadic sketch pool, tile grid, medoid clustering —
// and answers distance / nearest-tile / cluster-assign queries over
// HTTP with admission control, per-request deadlines, and graceful
// degradation to the O(k) sketch tier.
//
//	tabmine-serve -table calls.tabf -addr 127.0.0.1:8080 \
//	    -p 1 -k 128 -tile-rows 16 -tile-cols 16 -clusters 8
//
// With -store the server runs in streaming-ingestion mode instead: it
// serves a day-partitioned tabstore, accepts pushed day-columns on
// POST /v1/ingest (see tabmine-ingest), maintains the sketch pool
// incrementally over a bounded sliding window, and republishes the
// snapshot atomically after every accepted batch — no SIGHUP needed.
//
//	tabmine-serve -store ./calls -addr 127.0.0.1:8080 \
//	    -window-days 30 -panel-cols 32
//
// The sealed prefix of the pool persists as immutable memory-mapped
// segment files under <store>/segments: queries read sealed lanes from
// the mappings (the window is bounded by disk, not RAM) and a restart
// maps the segments and rebuilds only the fringe —
// tabmine_seg_restart_replay_days reads 0 even after SIGKILL.
// -panel-cols must be a power of two. See tabmine-store segments/fsck
// and `make mmap-demo`.
//
// Lifecycle: SIGHUP re-reads the input files and hot-swaps the
// snapshot atomically (in-flight requests finish against the old one);
// in store mode it is the manual override that re-reads the manifest
// for days appended by another process. SIGINT/SIGTERM drains in-flight
// requests for up to -grace and exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/bits"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/runctx"
	"repro/internal/server"
	"repro/internal/tabfile"
	"repro/internal/table"
	"repro/internal/tabstore"
)

// latchPublisher buffers the newest snapshot until the server exists
// (the ingester resumes before server.New runs, since the server needs
// the first snapshot), then forwards every later one.
type latchPublisher struct {
	mu   sync.Mutex
	last *server.Snapshot
	dst  server.Publisher
}

func (l *latchPublisher) Publish(sn *server.Snapshot) {
	l.mu.Lock()
	l.last = sn
	dst := l.dst
	l.mu.Unlock()
	if dst != nil {
		dst.Publish(sn)
	}
}

func (l *latchPublisher) Last() *server.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

func (l *latchPublisher) forwardTo(dst server.Publisher) {
	l.mu.Lock()
	l.dst = dst
	l.mu.Unlock()
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the resolved listen address to this file (for scripts)")
		in       = flag.String("table", "", "input table file (this or -store is required)")
		colsFlag = flag.String("cols", "", "serve only columns [lo:hi) of the table as one shard of a column-sharded fleet (table mode; sketches stay merge-compatible across shards built with equal -p/-k/-seed)")
		storeDir = flag.String("store", "", "serve a day-partitioned tabstore with streaming ingestion")
		loadPool = flag.String("load-pool", "", "load a pool snapshot instead of building one")
		p        = flag.Float64("p", 1, "Lp exponent in (0, 2]")
		k        = flag.Int("k", 128, "sketch entries")
		seed     = flag.Uint64("seed", 42, "sketch + clustering seed")
		maxLog   = flag.Int("max-log", 0, "cap pooled dyadic sizes at 2^n per axis (0 = every size fitting the table)")
		tileRows = flag.Int("tile-rows", 16, "grid tile height for nearest/assign")
		tileCols = flag.Int("tile-cols", 16, "grid tile width for nearest/assign")
		clusters = flag.Int("clusters", 8, "k-medoids clusters over grid tiles (0 disables /v1/assign)")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = all cores)")

		maxInflight = flag.Int("max-inflight", 0, "concurrent query executions (0 = default 8)")
		maxQueue    = flag.Int("max-queue", 0, "bounded admission queue (0 = default 4x inflight)")
		reqTimeout  = flag.Duration("timeout", 0, "default per-request deadline (0 = 2s)")
		degradeAt   = flag.Float64("degrade-at", 0, "occupancy fraction above which auto queries degrade (0 = 0.75)")
		exactBudget = flag.Duration("exact-budget", 0, "min remaining deadline for the exact path (0 = 20ms)")
		grace       = flag.Duration("grace", 10*time.Second, "drain timeout on SIGTERM/SIGINT")
		lameduck    = flag.Duration("lameduck", 0, "on SIGTERM/SIGINT, withdraw readiness (503 /readyz, not-ready /v1/shardinfo) and keep answering queries this long before draining — lets a coordinator route around this shard first")

		windowDays = flag.Int("window-days", 0, "store mode: sliding window over the time axis, in days (0 = unbounded)")
		panelCols  = flag.Int("panel-cols", 32, "store mode: panel width (a power of two) for incremental pool maintenance and segment alignment")
		poll       = flag.Duration("poll", 0, "store mode: re-read the manifest this often (0 = pushes and SIGHUP only)")
		queueLen   = flag.Int("queue-len", 0, "store mode: pending-append backlog bound before 503s (0 = default 8)")
	)
	flag.Parse()
	if (*in == "") == (*storeDir == "") {
		fmt.Fprintln(os.Stderr, "tabmine-serve: exactly one of -table and -store is required")
		flag.Usage()
		os.Exit(2)
	}
	if *colsFlag != "" && (*storeDir != "" || *loadPool != "") {
		fmt.Fprintln(os.Stderr, "tabmine-serve: -cols requires -table and builds its own pool (no -store / -load-pool)")
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "tabmine-serve: ", log.LstdFlags)

	ctx, stop := runctx.WithSignals(0)
	defer stop()

	snapCfg := server.SnapshotConfig{
		TileRows: *tileRows, TileCols: *tileCols,
		Clusters: *clusters, Seed: *seed, Workers: *workers,
	}
	var (
		build    func(bctx context.Context) (*server.Snapshot, error) // SIGHUP rebuild, table mode only
		ingester *ingest.Ingester
		snap     *server.Snapshot
		latch    = &latchPublisher{}
	)
	t0 := time.Now()
	if *storeDir != "" {
		st, err := tabstore.Open(*storeDir)
		fatal(err)
		if st.NumDays() == 0 {
			fatal(fmt.Errorf("store %s is empty; append a first day with tabmine-store", *storeDir))
		}
		// Row extents come from the store's fixed station axis; column
		// extents are capped at the tile width so they stay buildable
		// over any window at least one tile wide.
		popts := core.PoolOptions{
			MinLogRows: 1, MaxLogRows: bits.Len(uint(st.Rows())) - 1,
			MinLogCols: 1, MaxLogCols: bits.Len(uint(*tileCols)) - 1,
			Workers: *workers, PanelCols: *panelCols,
		}
		if *maxLog > 0 {
			popts.MaxLogRows = min(popts.MaxLogRows, *maxLog)
			popts.MaxLogCols = min(popts.MaxLogCols, *maxLog)
		}
		ingester, err = ingest.New(st, ingest.Options{
			PoolP: *p, PoolK: *k, PoolSeed: *seed, Pool: popts,
			WindowDays: *windowDays, QueueLen: *queueLen,
			SegmentDir: st.SegmentsDir(), Poll: *poll,
			Snapshot: snapCfg, Publisher: latch, Logf: logger.Printf,
		})
		fatal(err)
		// Resume runs in the background AFTER the server binds: the
		// process answers /healthz ("booting") and /readyz (503)
		// immediately, so a coordinator probing this shard learns "alive
		// but not ready" instead of connection-refused while the pool
		// resume crunches. snap stays nil — server.New's boot state.
	} else {
		build = func(bctx context.Context) (*server.Snapshot, error) {
			tb, err := tabfile.ReadFile(*in)
			if err != nil {
				return nil, err
			}
			baseCol := 0
			if *colsFlag != "" {
				lo, hi, err := parseColRange(*colsFlag, tb.Cols())
				if err != nil {
					return nil, err
				}
				// Shard mode: this process serves columns [lo, hi). The
				// slice becomes the local table; BaseCol records where it
				// sits in the global column space, which /v1/shardinfo
				// reports to the coordinator. Sketch randomness is
				// position-independent, so the slice's sketches are
				// bit-identical to the full table's for the same cells.
				tb = tb.Sub(table.Rect{R0: 0, C0: lo, Rows: tb.Rows(), Cols: hi - lo})
				baseCol = lo
			}
			var pool *core.Pool
			if *loadPool != "" {
				pool, err = core.LoadPoolFile(*loadPool)
			} else {
				opts := core.DefaultPoolOptions(tb)
				if *maxLog > 0 {
					opts.MaxLogRows = min(opts.MaxLogRows, *maxLog)
					opts.MaxLogCols = min(opts.MaxLogCols, *maxLog)
				}
				opts.Workers = *workers
				opts.Context = bctx
				opts.BaseCol = baseCol
				pool, err = core.NewPool(tb, *p, *k, *seed, opts)
			}
			if err != nil {
				return nil, err
			}
			return server.BuildSnapshot(bctx, tb, pool, snapCfg)
		}
		var err error
		snap, err = build(ctx)
		fatal(err)
		logger.Printf("snapshot ready in %v: %dx%d table, %d tiles, %d clusters",
			time.Since(t0).Round(time.Millisecond),
			snap.Table().Rows(), snap.Table().Cols(), snap.NumTiles(), snap.Clusters())
	}

	cfg := server.Config{
		MaxInflight: *maxInflight, MaxQueue: *maxQueue,
		DefaultTimeout: *reqTimeout, DegradeAt: *degradeAt,
		ExactBudget: *exactBudget, Workers: *workers,
		Logf: logger.Printf,
	}
	if ingester != nil {
		cfg.Ingestor = ingester
	}
	srv, err := server.New(snap, cfg) // snap == nil in store mode: boot state
	fatal(err)
	if ingester != nil {
		// Every maintained snapshot goes live atomically; the first one
		// flips /readyz from 503 to 200.
		latch.forwardTo(srv)
		go func() {
			if err := ingester.Resume(ctx); err != nil {
				if errors.Is(err, context.Canceled) {
					return
				}
				fatal(err)
			}
			first := latch.Last()
			if first == nil {
				fatal(fmt.Errorf("no snapshot could be built over the store window (is it at least %dx%d?)",
					*tileRows, *tileCols))
			}
			logger.Printf("snapshot ready in %v: %dx%d table, %d tiles, %d clusters",
				time.Since(t0).Round(time.Millisecond),
				first.Table().Rows(), first.Table().Cols(), first.NumTiles(), first.Clusters())
			if err := ingester.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				logger.Printf("ingest loop: %v", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *addr)
	fatal(err)
	logger.Printf("listening on http://%s", l.Addr())
	if *addrFile != "" {
		fatal(os.WriteFile(*addrFile, []byte(l.Addr().String()), 0o644))
	}

	// SIGHUP → table mode rebuilds from the input files and swaps
	// atomically (a failed rebuild keeps serving the old snapshot);
	// store mode re-reads the manifest and drains — the manual override
	// for stores grown by another process.
	hup, stopHup := runctx.Hangup()
	defer stopHup()
	go func() {
		for range hup {
			if ingester != nil {
				logger.Printf("SIGHUP: re-reading store manifest")
				ingester.Wake()
				continue
			}
			logger.Printf("SIGHUP: reloading snapshot from %s", *in)
			ns, err := build(ctx)
			if err != nil {
				logger.Printf("reload failed, keeping current snapshot: %v", err)
				continue
			}
			srv.Swap(ns)
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		fatal(err) // listener failure before any signal
	case <-ctx.Done():
	}
	if *lameduck > 0 {
		logger.Printf("lame duck: readiness withdrawn for %v", *lameduck)
		srv.BeginDrain()
		time.Sleep(*lameduck)
	}
	logger.Printf("draining (grace %v)", *grace)
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	logger.Printf("drained cleanly")
}

// parseColRange parses a half-open column range "lo:hi" and validates
// it against the table width.
func parseColRange(s string, max int) (lo, hi int, err error) {
	if _, err := fmt.Sscanf(s, "%d:%d", &lo, &hi); err != nil {
		return 0, 0, fmt.Errorf("-cols %q: want lo:hi (half-open, e.g. 0:32)", s)
	}
	if lo < 0 || hi <= lo || hi > max {
		return 0, 0, fmt.Errorf("-cols %q: need 0 <= lo < hi <= %d (table width)", s, max)
	}
	return lo, hi, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tabmine-serve: %v\n", err)
		os.Exit(1)
	}
}
