package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/tabstore"
	"repro/internal/workload"
)

const (
	testRows    = 16
	testDayCols = 8
)

// testOptions is the small test geometry with its own segment
// directory. Day width equals the segment alignment
// (max(PanelCols, 2^MaxLogCols) = 8), so segment boundaries fall on day
// boundaries.
func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		PoolP: 1, PoolK: 4, PoolSeed: 7,
		Pool: core.PoolOptions{
			MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 3,
			PanelCols: 8,
		},
		SegmentDir: filepath.Join(t.TempDir(), "segments"),
	}
}

func newTestStore(t *testing.T) (*tabstore.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := tabstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

func day(seed uint64) *table.Table {
	return workload.Random(testRows, testDayCols, 100, seed)
}

// push frames a day as a wire record and pushes it through the
// server.Ingestor entry point, exactly as /v1/ingest would.
func push(t *testing.T, ing *Ingester, label string, day *table.Table) (*server.IngestResult, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRecord(&buf, label, day, false); err != nil {
		t.Fatal(err)
	}
	return ing.IngestRecord(context.Background(), &buf)
}

func mustPush(t *testing.T, ing *Ingester, label string, day *table.Table) {
	t.Helper()
	if _, err := push(t, ing, label, day); err != nil {
		t.Fatalf("push %s: %v", label, err)
	}
}

// assertPoolsEqual is the byte-identity yardstick: equal parameters,
// geometry and window position, and every lane equal bit for bit. It
// reads lanes through CopyLaneBand, so it compares heap and banded
// (mmap-backed) pools alike.
func assertPoolsEqual(t *testing.T, want, got *core.Pool, label string) {
	t.Helper()
	if want.P() != got.P() || want.K() != got.K() || want.Seed() != got.Seed() {
		t.Fatalf("%s: p/k/seed %v/%d/%d vs %v/%d/%d", label,
			got.P(), got.K(), got.Seed(), want.P(), want.K(), want.Seed())
	}
	rows, cols := want.TableDims()
	if grows, gcols := got.TableDims(); grows != rows || gcols != cols {
		t.Fatalf("%s: dims %dx%d, want %dx%d", label, grows, gcols, rows, cols)
	}
	if got.BaseCol() != want.BaseCol() || got.PanelCols() != want.PanelCols() {
		t.Fatalf("%s: base/panel %d/%d, want %d/%d", label,
			got.BaseCol(), got.PanelCols(), want.BaseCol(), want.PanelCols())
	}
	lanes := want.Lanes()
	if g := got.Lanes(); !slices.Equal(g, lanes) {
		t.Fatalf("%s: lanes %v, want %v", label, g, lanes)
	}
	var wbuf, gbuf []float64
	for _, id := range lanes {
		laneCols := cols - 1<<id.J + 1
		var err error
		if wbuf, err = want.CopyLaneBand(id, 0, laneCols, wbuf); err != nil {
			t.Fatal(err)
		}
		if gbuf, err = got.CopyLaneBand(id, 0, laneCols, gbuf); err != nil {
			t.Fatal(err)
		}
		for i := range wbuf {
			if math.Float64bits(wbuf[i]) != math.Float64bits(gbuf[i]) {
				t.Fatalf("%s: lane %+v element %d: %v, want %v", label, id, i, gbuf[i], wbuf[i])
			}
		}
	}
}

// scratchPool builds the reference pool from scratch over store days
// [from, to), with the base column an incremental pool over the same
// window would carry.
func scratchPool(t *testing.T, st *tabstore.Store, from, to int, opts Options) *core.Pool {
	t.Helper()
	tb, err := st.LoadRange(from, to)
	if err != nil {
		t.Fatal(err)
	}
	base, err := st.ColOffset(from)
	if err != nil {
		t.Fatal(err)
	}
	po := opts.Pool
	po.BaseCol = base
	pl, err := core.NewPool(tb, opts.PoolP, opts.PoolK, opts.PoolSeed, po)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPushAndIncrementalMaintenance(t *testing.T) {
	st, _ := newTestStore(t)
	ing, err := New(st, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
	}
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Two more arrive after the first build: these take the Append path.
	for i := 2; i < 4; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
	}
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ing.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", ing.Pending())
	}
	if got, want := ing.Pool().HighWaterCols(), st.ColsTotal(); got != want {
		t.Fatalf("HighWaterCols = %d, store has %d", got, want)
	}
	assertPoolsEqual(t, scratchPool(t, st, 0, 4, ing.opts), ing.Pool(), "incremental vs from scratch")
}

func TestBacklogSheds(t *testing.T) {
	st, _ := newTestStore(t)
	opts := testOptions(t)
	opts.QueueLen = 2
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d00", day(0))
	mustPush(t, ing, "d01", day(1))
	_, err = push(t, ing, "d02", day(2))
	if !errors.Is(err, server.ErrIngestBacklog) {
		t.Fatalf("push over the backlog bound: %v, want ErrIngestBacklog", err)
	}
	if st.NumDays() != 2 {
		t.Fatalf("shed push still reached the store: %d days", st.NumDays())
	}
	// Draining frees the backlog and the retry lands.
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d02", day(2))
}

// The store is the authority: a restart with different pool parameters
// (here k) over segments sealed for the old ones discards them, logs
// it, reclaims their files, and rebuilds from the store.
func TestResumeDiscardsMismatchedPool(t *testing.T) {
	st, dir := newTestStore(t)
	opts := testOptions(t)
	other := opts
	other.PoolK = 8
	ing, err := New(st, other)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
	}
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ing.segs.SegmentFiles()) == 0 {
		t.Fatal("nothing sealed under the old parameters")
	}
	ing.Close()

	st2, err := tabstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	opts.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	ing2, err := New(st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing2.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	assertPoolsEqual(t, scratchPool(t, st2, 0, 4, opts), ing2.Pool(), "rebuild after discarding mismatched segments")
	if !slices.ContainsFunc(logged, func(l string) bool { return strings.Contains(l, "does not match") }) {
		t.Fatalf("discard was not logged: %q", logged)
	}
	// The old files were reclaimed: what is on disk is exactly the live
	// set sealed under the configured parameters.
	onDisk, err := filepath.Glob(filepath.Join(opts.SegmentDir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	live := ing2.segs.SegmentFiles()
	if len(live) == 0 || len(onDisk) != len(live) {
		t.Fatalf("%d segment files on disk, %d live", len(onDisk), len(live))
	}
}

// A torn append — the process dies mid-write of a day file — must leave
// the store ingestable: the injected-fault push fails cleanly without a
// manifest entry, the stray temp of a crashed write is swept on reopen,
// and the pool ends byte-identical to a from-scratch build.
func TestTornAppendRecovery(t *testing.T) {
	st, dir := newTestStore(t)
	opts := testOptions(t)
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d00", day(0))
	mustPush(t, ing, "d01", day(1))

	// Fault injection: the first write of the next day file tears.
	atomicio.TestWrapWriter = func(path string, w io.Writer) io.Writer {
		if strings.Contains(filepath.Base(path), "day-") {
			return &faultinject.Writer{W: w, FailAt: 1, Short: true}
		}
		return w
	}
	defer func() { atomicio.TestWrapWriter = nil }()
	if _, err := push(t, ing, "d02", day(2)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn push: %v, want ErrInjected", err)
	}
	atomicio.TestWrapWriter = nil
	if st.NumDays() != 2 {
		t.Fatalf("torn push left %d manifest days, want 2", st.NumDays())
	}

	// A crash at the worst moment leaves the temp file behind instead;
	// plant one and reopen, as a restarting process would.
	torn := filepath.Join(dir, "day-0002.tabf.tmp-crashed")
	if err := os.WriteFile(torn, []byte("partial bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := tabstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray temp not swept on reopen: %v", err)
	}
	ing2, err := New(st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing2.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing2, "d02", day(2))
	if err := ing2.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertPoolsEqual(t, scratchPool(t, st2, 0, 3, ing2.opts), ing2.Pool(), "torn-append recovery vs from scratch")
}

// Cancellation mid-rebuild publishes nothing and advances nothing; the
// next drain completes the same work byte-identically.
func TestMidRebuildCancellation(t *testing.T) {
	st, _ := newTestStore(t)
	ing, err := New(st, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d00", day(0))
	mustPush(t, ing, "d01", day(1))
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	hw := ing.Pool().HighWaterCols()
	mustPush(t, ing, "d02", day(2))
	mustPush(t, ing, "d03", day(3))

	ctx := faultinject.CancelAfterChecks(context.Background(), 3)
	if err := ing.drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled drain: %v, want context.Canceled", err)
	}
	if ing.Pending() != 2 {
		t.Fatalf("cancelled drain advanced the cursor: %d pending, want 2", ing.Pending())
	}
	if ing.Pool().HighWaterCols() != hw {
		t.Fatal("cancelled drain mutated the pool")
	}
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertPoolsEqual(t, scratchPool(t, st, 0, 4, ing.opts), ing.Pool(), "drain after cancellation vs from scratch")
}

type capturingPublisher struct {
	snaps []*server.Snapshot
}

func (p *capturingPublisher) Publish(sn *server.Snapshot) { p.snaps = append(p.snaps, sn) }

func TestPublishesSnapshots(t *testing.T) {
	st, _ := newTestStore(t)
	pub := &capturingPublisher{}
	opts := testOptions(t)
	opts.Publisher = pub
	opts.Snapshot = server.SnapshotConfig{TileRows: 8, TileCols: 8}
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d00", day(0))
	mustPush(t, ing, "d01", day(1))
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d02", day(2))
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(pub.snaps) != 2 {
		t.Fatalf("published %d snapshots, want 2", len(pub.snaps))
	}
	last := pub.snaps[len(pub.snaps)-1]
	if last.Table().Cols() != st.ColsTotal() {
		t.Fatalf("published snapshot over %d cols, store has %d", last.Table().Cols(), st.ColsTotal())
	}
	if last.NumTiles() != (testRows/8)*(st.ColsTotal()/8) {
		t.Fatalf("published snapshot has %d tiles", last.NumTiles())
	}
}

func TestRecordRoundTrip(t *testing.T) {
	tb := day(9)
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteRecord(&buf, "d2026-08-06", tb, compress); err != nil {
			t.Fatal(err)
		}
		label, got, err := ReadRecord(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if label != "d2026-08-06" {
			t.Fatalf("label %q", label)
		}
		if !bytes.Equal(float64Bytes(got.Data()), float64Bytes(tb.Data())) {
			t.Fatal("cells did not round-trip")
		}
	}
}

func float64Bytes(xs []float64) []byte {
	var buf bytes.Buffer
	for _, x := range xs {
		fmt.Fprintf(&buf, "%x;", x)
	}
	return buf.Bytes()
}

func TestRecordRejects(t *testing.T) {
	tb := day(10)
	var ok bytes.Buffer
	if err := WriteRecord(&ok, "d00", tb, false); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("XREC"), ok.Bytes()[4:]...),
		"truncated label": ok.Bytes()[:11],
		"truncated table": ok.Bytes()[:ok.Len()-9],
	}
	for name, raw := range cases {
		if _, _, err := ReadRecord(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := WriteRecord(io.Discard, "bad/label", tb, false); err == nil {
		t.Error("separator label accepted")
	}
	if err := WriteRecord(io.Discard, "", tb, false); err == nil {
		t.Error("empty label accepted")
	}
	if err := WriteRecord(io.Discard, "sp ace", tb, false); err == nil {
		t.Error("label with a space accepted")
	}
}
