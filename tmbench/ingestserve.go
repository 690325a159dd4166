package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/ingest"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/tabstore"
	"repro/internal/workload"
)

// isSize sizes the ingest-serve workload.
type isSize struct {
	stations, tile, k, clusters int
	windowDays, initialDays     int
	totalDays                   int // days generated; pushing stops when they run out
	countDays                   int // pushed days the exact FFT count covers
	queries, probe              int
	warmup                      time.Duration
	// pushEvery is the push schedule: one day is due every pushEvery
	// (0 pushes each day as soon as the previous one is visible).
	pushEvery time.Duration
}

func isSizes(tiny bool) isSize {
	if tiny {
		return isSize{stations: 16, tile: 8, k: 8, clusters: 2, windowDays: 4, initialDays: 2,
			totalDays: 40, countDays: 4, queries: 256, probe: 32, warmup: 50 * time.Millisecond}
	}
	return isSize{stations: 64, tile: 8, k: 16, clusters: 4, windowDays: 8, initialDays: 4,
		totalDays: 320, countDays: 12, queries: 4096, probe: 256, warmup: 300 * time.Millisecond,
		pushEvery: window}
}

const dayCols = workload.BucketsPerDay

// publishTracker sits between the ingester and the server (it is the
// ingester's server.Publisher). It forwards every snapshot, keeps a
// reference to the latest, and maintains a seqlock generation counter —
// odd while a publish is in progress — so the query loop can tell which
// snapshot generation answered a request.
type publishTracker struct {
	srv     *server.Server
	seq     atomic.Int64
	changed chan struct{} // signalled after every publish

	mu     sync.Mutex
	last   *server.Snapshot
	high   int               // high-water column of the last snapshot
	times  map[int]time.Time // day index -> when a snapshot first covered it
	window map[int64][2]int  // generation -> (base column, columns)
}

func newPublishTracker(srv *server.Server) *publishTracker {
	return &publishTracker{srv: srv, changed: make(chan struct{}, 1),
		times: map[int]time.Time{}, window: map[int64][2]int{}}
}

func (p *publishTracker) Publish(sn *server.Snapshot) {
	sn.Retain()
	p.seq.Add(1)
	p.srv.Publish(sn)
	now := time.Now()
	p.mu.Lock()
	old := p.last
	p.last = sn
	prev := p.high
	p.high = sn.Pool().HighWaterCols()
	for d := prev / dayCols; d < p.high/dayCols; d++ {
		p.times[d] = now
	}
	gen := (p.seq.Load() + 1) / 2
	p.window[gen] = [2]int{sn.Pool().BaseCol(), sn.Table().Cols()}
	p.mu.Unlock()
	p.seq.Add(1)
	if old != nil {
		old.Release()
	}
	select {
	case p.changed <- struct{}{}:
	default:
	}
}

// visibleAt waits until a snapshot covering day d has been published.
func (p *publishTracker) visibleAt(d int, limit time.Duration) (time.Time, error) {
	timeout := time.After(limit)
	for {
		p.mu.Lock()
		t, ok := p.times[d]
		p.mu.Unlock()
		if ok {
			return t, nil
		}
		select {
		case <-p.changed:
		case <-timeout:
			return time.Time{}, fmt.Errorf("day %d not visible after %v", d, limit)
		}
	}
}

func (p *publishTracker) close() {
	p.mu.Lock()
	old := p.last
	p.last = nil
	p.mu.Unlock()
	if old != nil {
		old.Release()
	}
}

// ackTracker is the server's server.Ingestor: it times each
// Ingester.IngestRecord call and records the backlog it reports.
type ackTracker struct {
	ing *ingest.Ingester
	tr  *tracer

	mu      sync.Mutex
	ackMS   []float64
	ackEnd  map[int]time.Time // cols total after the append -> ack time
	backlog int
}

func (a *ackTracker) IngestRecord(ctx context.Context, body io.Reader) (*server.IngestResult, error) {
	start := a.tr.now()
	t0 := time.Now()
	res, err := a.ing.IngestRecord(ctx, body)
	end := time.Now()
	if a.tr.on.Load() {
		a.tr.record(span{ID: a.tr.newID(), Name: "ingest.ack", Start: start, End: a.tr.now()})
	}
	if err == nil {
		a.mu.Lock()
		a.ackMS = append(a.ackMS, float64(end.Sub(t0))/1e6)
		a.ackEnd[res.ColsTotal] = end
		a.backlog = max(a.backlog, res.Pending)
		a.mu.Unlock()
	}
	return res, err
}

// ingestStack is one segment-mode store, ingester and server.
type ingestStack struct {
	dir    string
	ing    *ingest.Ingester
	pub    *publishTracker
	acks   *ackTracker
	ep     *endpoint
	cancel context.CancelFunc
	runErr chan error
}

func (s *ingestStack) close() error {
	s.cancel()
	err := <-s.runErr
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	if cerr := s.ep.close(); cerr != nil && err == nil {
		err = cerr
	}
	s.ing.Close()
	s.pub.close()
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// ingestPoolOptions pools the tile's dyadic size in panel mode (the
// incremental-append layout segment mode requires).
func ingestPoolOptions(tile int) core.PoolOptions {
	po := tilePoolOptions(tile)
	po.PanelCols = 32
	return po
}

// buildIngest provisions a store with the initial days (not timed: it
// is the input), then times the set-up: ingester, server, Resume (the
// first pool, segments and snapshot), and readiness.
func buildIngest(opts options, sz isSize, full *table.Table, tr *tracer, plant int64) (*ingestStack, float64, error) {
	dir, err := os.MkdirTemp(opts.workDir, "ingest-store-")
	if err != nil {
		return nil, 0, err
	}
	st, err := tabstore.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	for d := 0; d < sz.initialDays; d++ {
		if err := st.AppendDay(fmt.Sprintf("d%04d", d), dayTable(full, d), false); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	s := &ingestStack{dir: dir, runErr: make(chan error, 1)}
	s.acks = &ackTracker{tr: tr, ackEnd: map[int]time.Time{}}
	srv, err := server.New(nil, server.Config{Ingestor: s.acks})
	if err != nil {
		return nil, 0, err
	}
	s.pub = newPublishTracker(srv)
	// Rebuilds run on one worker, so the query connection keeps the
	// other core: on a 2-CPU host a rebuild on both cores made query
	// throughput hang on how the scheduler split them.
	popts := ingestPoolOptions(sz.tile)
	popts.Workers = 1
	s.ing, err = ingest.New(st, ingest.Options{
		PoolP: 1, PoolK: sz.k, PoolSeed: opts.seed, Pool: popts,
		WindowDays: sz.windowDays, SegmentDir: st.SegmentsDir(),
		Snapshot: server.SnapshotConfig{TileRows: sz.tile, TileCols: sz.tile, Clusters: sz.clusters,
			Seed: opts.seed, Workers: 1},
		Publisher: s.pub,
	})
	if err != nil {
		return nil, 0, err
	}
	s.acks.ing = s.ing
	if s.ep, err = serveHandler("server.handler", srv.Handler(), tr, plant); err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if err := s.ing.Resume(ctx); err != nil {
		cancel()
		return nil, 0, err
	}
	go func() { s.runErr <- s.ing.Run(ctx) }()
	probe := newClient(s.ep.url)
	defer probe.close()
	if err := probe.waitReady("/readyz", 30*time.Second); err != nil {
		return nil, 0, err
	}
	return s, since(t0), nil
}

// dayTable is day d's columns of the generated table.
func dayTable(full *table.Table, d int) *table.Table {
	return full.Sub(table.Rect{R0: 0, C0: d * dayCols, Rows: full.Rows(), Cols: dayCols})
}

// pushOutcome is the pusher's record of one run.
type pushOutcome struct {
	days                    int
	rttMS, visibleS, lateMS []float64
	correlations, spectra   []int64 // per pushed day
	rebuildS                []float64
	attempted               int64
	reasons                 map[string]int64 // failed pushes by reason
}

// push sends days from day `first` until the deadline (and at least
// minDays days). Day i is due at start + i*every; it goes out then, or
// as soon as the previous day is visible if that is later, so a pusher
// that fell behind catches up.
func push(c *client, s *ingestStack, records [][]byte, first, minDays int, start time.Time, every time.Duration, deadline time.Time) *pushOutcome {
	out := &pushOutcome{reasons: map[string]int64{}}
	due := start
	c0, s0 := fft.CorrelationCount(), fft.TableSpectrumCount()
	var buf bytes.Buffer
	for d := first; d < len(records) && (time.Now().Before(deadline) || out.days < minDays); d++ {
		time.Sleep(time.Until(due))
		sendAt := time.Now()
		out.lateMS = append(out.lateMS, float64(sendAt.Sub(due))/1e6)
		out.attempted++
		code, err := c.do(request{method: http.MethodPost, path: "/v1/ingest", body: records[d]}, &buf, 0)
		rtt := time.Since(sendAt)
		if err != nil || code != http.StatusOK {
			out.reasons[fmt.Sprintf("ingest push failed (status %d, %v)", code, err)]++
			break
		}
		out.rttMS = append(out.rttMS, float64(rtt)/1e6)
		visible, err := s.pub.visibleAt(d, 60*time.Second)
		if err != nil {
			out.reasons[err.Error()]++
			break
		}
		c1, s1 := fft.CorrelationCount(), fft.TableSpectrumCount()
		out.correlations = append(out.correlations, c1-c0)
		out.spectra = append(out.spectra, s1-s0)
		c0, s0 = c1, s1
		out.visibleS = append(out.visibleS, visible.Sub(sendAt).Seconds())
		s.acks.mu.Lock()
		acked, ok := s.acks.ackEnd[(d+1)*dayCols]
		s.acks.mu.Unlock()
		if ok {
			out.rebuildS = append(out.rebuildS, visible.Sub(acked).Seconds())
		}
		out.days++
		due = due.Add(every)
		if every == 0 {
			due = visible
		}
	}
	return out
}

// ingestOracle checks answers served while the window moved. Answers
// from the final generation must be byte-identical to a from-scratch
// build over the final window. Exact-tier answers from any other known
// generation are checked against an exact-only reference over that
// generation's window (a k=1 pool, no clustering): distance byte for
// byte, nearest by tile and distance, assign by the distance to the
// medoid it names. Answers of unknown generation get validity checks.
type ingestOracle struct {
	full      *table.Table
	pub       *publishTracker
	sz        isSize
	seed      uint64
	finalGen  int64
	final     map[int][]byte // query index -> expected answer on the final snapshot
	finalRef  *server.Snapshot
	finalGrid *table.Grid
	// ref is the exact-only reference of generation refGen; answers are
	// verified generation by generation, so one is kept at a time.
	ref    *server.Snapshot
	refGen int64
}

// matchesFinal reports whether body is the from-scratch build's answer
// to query idx. Expected answers are computed once, on first use.
func (o *ingestOracle) matchesFinal(q query, idx int, body []byte) bool {
	want, ok := o.final[idx]
	if !ok {
		var err error
		if want, _, err = exactAnswer(context.Background(), o.finalRef, o.finalGrid, q); err != nil {
			return false
		}
		o.final[idx] = want
	}
	return matchesReference(context.Background(), o.finalRef, o.finalGrid, q, want, body)
}

// reference builds the exact-only reference of generation gen.
func (o *ingestOracle) reference(gen int64) (*server.Snapshot, *table.Grid, error) {
	o.pub.mu.Lock()
	w, ok := o.pub.window[gen]
	o.pub.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("generation %d was never published", gen)
	}
	grid, err := table.NewGrid(o.full.Rows(), w[1], o.sz.tile, o.sz.tile)
	if err != nil {
		return nil, nil, err
	}
	if o.ref != nil && o.refGen == gen {
		return o.ref, grid, nil
	}
	window := o.full.Sub(table.Rect{R0: 0, C0: w[0], Rows: o.full.Rows(), Cols: w[1]})
	pool, err := core.NewPool(window, 1, 1, o.seed, tilePoolOptions(o.sz.tile))
	if err != nil {
		return nil, nil, err
	}
	sn, err := server.BuildSnapshot(context.Background(), window, pool,
		server.SnapshotConfig{TileRows: o.sz.tile, TileCols: o.sz.tile})
	if err != nil {
		return nil, nil, err
	}
	o.ref, o.refGen = sn, gen
	return sn, grid, nil
}

func (o *ingestOracle) check(q query, idx int, gen int64, body []byte) (bool, string) {
	if gen == o.finalGen {
		if !o.matchesFinal(q, idx, body) {
			return false, q.op + " on the final snapshot differs from the from-scratch build"
		}
		return true, ""
	}
	var got struct {
		Tile     *int    `json:"tile"`
		Rect     string  `json:"rect"`
		Medoid   *int    `json:"medoid"`
		Distance float64 `json:"distance"`
		Tier     string  `json:"tier"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return false, "undecodable answer"
	}
	if got.Tier != server.TierExact && got.Tier != server.TierSketch {
		return false, "unknown tier " + got.Tier
	}
	if math.IsNaN(got.Distance) || got.Distance < 0 {
		return false, "bad distance"
	}
	if gen < 0 || got.Tier != server.TierExact {
		return true, ""
	}
	ref, grid, err := o.reference(gen)
	if err != nil {
		return false, err.Error()
	}
	ctx := context.Background()
	switch q.op {
	case "distance":
		d, err := ref.ExactDistance(ctx, q.a, q.b, 0)
		want, _ := json.Marshal(&server.DistanceResult{Distance: d, Tier: server.TierExact})
		if err != nil || !bytes.Equal(body, append(want, '\n')) {
			return false, "distance differs from the exact distance over its window"
		}
	case "nearest":
		ti, d, err := ref.ExactNearest(ctx, q.a, 0)
		if err != nil || got.Tile == nil || *got.Tile != ti || got.Distance != d || got.Rect != server.FormatRect(grid.Rect(ti)) {
			return false, "nearest differs from the full scan over its window"
		}
	case "assign":
		if got.Medoid == nil || *got.Medoid < 0 || *got.Medoid >= grid.NumTiles() {
			return false, "assign names no tile of its window"
		}
		d, err := ref.ExactDistance(ctx, q.a, grid.Rect(*got.Medoid), 0)
		if err != nil || math.Abs(got.Distance-d) > 1e-12*d {
			return false, "assign distance differs from the exact distance to its medoid"
		}
	}
	return true, ""
}

func runIngestServe(opts options, rep *report) error {
	sz := isSizes(opts.tiny)
	full, _, err := workload.CallVolume(workload.CallVolumeConfig{Stations: sz.stations, Days: sz.totalDays, Seed: opts.seed})
	if err != nil {
		return err
	}
	records := make([][]byte, sz.totalDays)
	for d := range records {
		var b bytes.Buffer
		if err := ingest.WriteRecord(&b, fmt.Sprintf("d%04d", d), dayTable(full, d), false); err != nil {
			return err
		}
		records[d] = b.Bytes()
	}
	// Queries stay inside the narrowest window any snapshot serves.
	minCols := min(sz.initialDays, (sz.windowDays+1)/2) * dayCols
	qgrid, err := table.NewGrid(sz.stations, minCols, sz.tile, sz.tile)
	if err != nil {
		return err
	}
	qs := genMix(rand.New(rand.NewPCG(opts.seed, 0x1a6e57)), qgrid, sz.queries)
	inputMB := heapMB()

	var setups []float64
	var setupCorr []int64
	var s *ingestStack
	var seg0 segstore.Stats
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		plant := int64(0)
		if i == setupReps-1 {
			plant = opts.plantWrong
			seg0 = segstore.ReadStats()
		}
		var secs float64
		c0 := fft.CorrelationCount()
		if s, secs, err = buildIngest(opts, sz, full, rep.tr, plant); err != nil {
			return err
		}
		setups = append(setups, secs)
		setupCorr = append(setupCorr, fft.CorrelationCount()-c0)
	}
	// Every set-up resumes the same initial days: the FFT work must repeat.
	for _, c := range setupCorr[1:] {
		if c != setupCorr[0] {
			rep.countMismatch("set-up resumes ran %v FFT correlations", setupCorr)
			break
		}
	}
	defer s.close()
	rep.set("setup_s", median(setups))
	rep.note("setup_s repeats %v", setups)
	reportHeap(rep, inputMB)

	// Timed window: one connection pushes days, one runs the query mix.
	qc, pc := newClient(s.ep.url), newClient(s.ep.url)
	defer qc.close()
	defer pc.close()
	lp := &loop{client: qc, reqs: requestsFor(qs), tr: rep.tr, gen: s.pub.seq.Load}
	warm := lp.run(time.Now(), sz.warmup)
	segA := segstore.ReadStats()
	total := time.Duration(opts.seconds * float64(time.Second))
	var pushed *pushOutcome
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		pushed = push(pc, s, records, sz.initialDays, sz.countDays, start, sz.pushEvery, start.Add(total))
	}()
	plain, traced := phases(opts, lp, rep.tr)
	wg.Wait()
	segB := segstore.ReadStats()

	// The oracle: a from-scratch build over the final served window.
	s.pub.mu.Lock()
	final := s.pub.last
	finalGen := (s.pub.seq.Load() + 1) / 2
	s.pub.mu.Unlock()
	base, cols := final.Pool().BaseCol(), final.Table().Cols()
	window := full.Sub(table.Rect{R0: 0, C0: base, Rows: full.Rows(), Cols: cols})
	if !table.EqualApprox(window, final.Table(), 0) {
		rep.ops(1, 1, "final served window differs from the pushed days")
	}
	popts := ingestPoolOptions(sz.tile)
	popts.BaseCol = base
	scfg := server.SnapshotConfig{TileRows: sz.tile, TileCols: sz.tile, Clusters: sz.clusters, Seed: opts.seed}
	ref, bs, err := buildSnapshot(window, sz.k, opts.seed, popts, scfg)
	if err != nil {
		return err
	}
	rep.set("server.build_snapshot_s", bs.snapS)
	rgrid, err := table.NewGrid(sz.stations, cols, sz.tile, sz.tile)
	if err != nil {
		return err
	}
	oracle := &ingestOracle{full: full, pub: s.pub, sz: sz, seed: opts.seed, finalGen: finalGen,
		finalRef: ref, finalGrid: rgrid, final: map[int][]byte{}}
	check := func(key int64, body []byte) (int, string) {
		idx := keyIdx(key)
		if ok, why := oracle.check(qs[idx], idx, keyGen(key), body); !ok {
			return 1, why
		}
		return 0, ""
	}
	for _, r := range []*loopResult{warm, plain.res, phaseRes(traced)} {
		if r != nil {
			r.verify(check)
			r.account(rep)
		}
	}
	// The probe set, sent to the final snapshot after ingestion stopped.
	var buf bytes.Buffer
	for i, req := range requestsFor(qs[:min(sz.probe, len(qs))]) {
		code, err := qc.do(req, &buf, 0)
		switch {
		case err != nil || code != http.StatusOK:
			rep.ops(1, 1, fmt.Sprintf("probe query failed (status %d, %v)", code, err))
		case !oracle.matchesFinal(qs[i], i, buf.Bytes()):
			rep.ops(1, 1, "probe answer differs from the from-scratch build over the final window")
		default:
			rep.ops(1, 0, "")
		}
	}

	rep.ops(pushed.attempted, 0, "")
	for why, n := range pushed.reasons {
		rep.ops(0, n, why)
	}
	reportEndToEnd(rep, plain)
	acc := &plain.res.acc
	if acc.served > 0 {
		rep.set("server.exact_share", float64(acc.exact)/float64(acc.served))
	}
	if pushed.days > 0 {
		rep.set("ingest.visible_p50_s", median(pushed.visibleS))
		rep.set("ingest.visible_max_s", percentile(pushed.visibleS, 100))
		rep.set("ingest.push_rtt_p50_ms", median(pushed.rttMS))
	}
	rep.note("ingest: FFT correlations per set-up resume %v, per pushed day %v", setupCorr, pushed.correlations)
	rep.note("ingest: %d days pushed, window [%d, %d) at the end", pushed.days, base, base+cols)
	reportRuntime(rep, plain)
	rep.set("gen.lateness_p99_ms", percentile(append(append([]float64(nil), acc.lateMS...), pushed.lateMS...), 99))
	reportShares(rep, plain.srv)
	rep.set("ingest.days_pushed", float64(pushed.days))
	s.acks.mu.Lock()
	rep.set("ingest.ack_ms", median(s.acks.ackMS))
	rep.set("ingest.backlog_max", float64(s.acks.backlog))
	s.acks.mu.Unlock()
	rep.set("ingest.rebuild_s", median(pushed.rebuildS))

	// FFT work per day over the first countDays pushed days: a pure
	// function of the seed, so it must repeat exactly.
	n := min(sz.countDays, len(pushed.correlations))
	if n < sz.countDays {
		rep.countMismatch("only %d of the %d days the FFT count covers were pushed", n, sz.countDays)
	}
	if n > 0 {
		var corr, spec int64
		var rebuild float64
		for d := 0; d < n; d++ {
			corr += pushed.correlations[d]
			spec += pushed.spectra[d]
		}
		for _, r := range pushed.rebuildS[:min(n, len(pushed.rebuildS))] {
			rebuild += r
		}
		rep.set("fft.correlations_per_day", float64(corr)/float64(n))
		rep.set("fft.table_spectra_per_day", float64(spec)/float64(n))
		if corr > 0 {
			rep.set("fft.ns_per_correlation", rebuild*1e9/float64(corr))
		}
	}

	rep.set("segstore.segments_created", float64(segB.Created-segA.Created))
	rep.set("segstore.compactions", float64(segB.Compactions-segA.Compactions))
	userBytes := float64(window.Rows()*window.Cols()) * 8
	rep.set("segstore.bytes_disk_per_user_byte", float64(segB.BytesDisk-seg0.BytesDisk)/userBytes)
	rep.set("segstore.bytes_mapped", float64(segB.BytesMapped-seg0.BytesMapped))

	kernel, _, err := replayKernels(rep, final, qs, sz.probe)
	if err != nil {
		return err
	}
	kmed, err := timeKMedoids(ref.Pool(), rgrid, sz.clusters, opts.seed)
	if err != nil {
		return err
	}
	rep.set("cluster.kmedoids_s", kmed)
	if opts.trace {
		a := analyse(rep.tr.snapshot(), containment{"ingest.ack", "server.ingest"})
		handler := a.stats("server.handler")
		rep.set("server.handler_us", handler.meanUS)
		rep.set("server.overhead_us", handler.meanUS-kernelMean(kernel, qs, traced.res.acc.seen))
		rep.set("http.transport_us", a.stats("client").meanSelf)
		reportTrace(rep, plain, traced, a)
	}
	if n := s.ep.front.requests.Load(); n > 0 {
		rep.set("server.resp_bytes_per_query", float64(s.ep.front.bytes.Load())/float64(n))
	}
	return nil
}
