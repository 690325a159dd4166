package segstore

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
)

// Test geometry: small enough to be fast, awkward enough to exercise
// alignment — segAlign = max(PanelCols=4, 2^MaxLogCols=4) = 4.
func testParams() Params {
	return Params{P: 2, K: 8, Rows: 8, Seed: 42,
		MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2,
		Estimator: core.EstimatorAuto, PanelCols: 4}
}

func testOpts(p Params) core.PoolOptions {
	return core.PoolOptions{
		MinLogRows: p.MinLogRows, MaxLogRows: p.MaxLogRows,
		MinLogCols: p.MinLogCols, MaxLogCols: p.MaxLogCols,
		Estimator: p.Estimator, PanelCols: p.PanelCols,
	}
}

func testTable(t *testing.T, rows, cols, baseCol int) *table.Table {
	t.Helper()
	tb := table.New(rows, cols)
	d := tb.Data()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			abs := c + baseCol
			d[r*cols+c] = math.Sin(float64(r*131+abs*17)) + float64(abs%7)
		}
	}
	return tb
}

// rectsFor enumerates query rectangles covering exact-dyadic and
// compound shapes across the table.
func rectsFor(rows, cols int) []table.Rect {
	var rects []table.Rect
	for _, rr := range []int{2, 3, 4} {
		for _, rc := range []int{2, 3, 4} {
			for r0 := 0; r0+rr <= rows; r0 += 3 {
				for c0 := 0; c0+rc <= cols; c0 += 3 {
					rects = append(rects, table.Rect{R0: r0, C0: c0, Rows: rr, Cols: rc})
				}
			}
		}
	}
	return rects
}

// assertPoolsIdentical compares sketches of every enumerable rect
// byte-for-byte across two pools over the same window.
func assertPoolsIdentical(t *testing.T, want, got *core.Pool, label string) {
	t.Helper()
	rows, cols := want.TableDims()
	grows, gcols := got.TableDims()
	if rows != grows || cols != gcols {
		t.Fatalf("%s: dims %dx%d vs %dx%d", label, rows, cols, grows, gcols)
	}
	var wbuf, gbuf []float64
	for _, rect := range rectsFor(rows, cols) {
		var err error
		wbuf, err = want.Sketch(rect, wbuf)
		if err != nil {
			continue
		}
		gbuf, err = got.Sketch(rect, gbuf)
		if err != nil {
			t.Fatalf("%s: rect %v: %v", label, rect, err)
		}
		for i := range wbuf {
			if math.Float64bits(wbuf[i]) != math.Float64bits(gbuf[i]) {
				t.Fatalf("%s: rect %v lane %d: %v != %v", label, rect, i, gbuf[i], wbuf[i])
			}
		}
	}
}

func mustBanded(t *testing.T, tb *table.Table, p Params, baseCol int, sealed []core.SealedBand) *core.Pool {
	t.Helper()
	opts := testOpts(p)
	opts.BaseCol = baseCol
	pl, err := core.NewBandedPool(tb, p.P, p.K, p.Seed, opts, sealed)
	if err != nil {
		t.Fatalf("NewBandedPool: %v", err)
	}
	return pl
}

func mustHeap(t *testing.T, tb *table.Table, p Params, baseCol int) *core.Pool {
	t.Helper()
	opts := testOpts(p)
	opts.BaseCol = baseCol
	pl, err := core.NewPool(tb, p.P, p.K, p.Seed, opts)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return pl
}

// sealAll seals the pool's full sealable prefix into the store in
// chunks of chunk columns (0 = one segment).
func sealAll(t *testing.T, st *Store, pl *core.Pool, chunk int) {
	t.Helper()
	limit := pl.BaseCol() + pl.SealableCols()
	at := st.SealedCol()
	for at < limit {
		end := limit
		if chunk > 0 && at+chunk < limit {
			end = at + chunk
		}
		if err := st.WriteL0(pl, at, end); err != nil {
			t.Fatalf("WriteL0 [%d,%d): %v", at, end, err)
		}
		at = end
	}
}

func TestSealMapAndServeByteIdentical(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	tb := testTable(t, p.Rows, 20, 0)
	heap := mustHeap(t, tb, p, 0)

	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	banded := mustBanded(t, tb, p, 0, nil)
	assertPoolsIdentical(t, heap, banded, "all-fringe banded vs heap")
	sealAll(t, st, banded, 4) // 16 sealable cols → 4 L0 segments

	v := st.Acquire()
	defer v.Release()
	if v.SealedCol() != 16 || v.NumSegments() != 4 {
		t.Fatalf("sealed to %d with %d segments, want 16 with 4", v.SealedCol(), v.NumSegments())
	}
	mapped := mustBanded(t, tb, p, 0, v.Bands(0))
	if mapped.MappedBytes() == 0 {
		t.Fatal("mapped pool reports zero mapped bytes")
	}
	assertPoolsIdentical(t, heap, mapped, "mmap-banded vs heap")

	// Reband the working pool onto the mapped set: same bytes, new backing.
	rebanded, err := banded.Reband(v.Bands(0))
	if err != nil {
		t.Fatalf("Reband: %v", err)
	}
	assertPoolsIdentical(t, heap, rebanded, "rebanded vs heap")
	st.Close()

	// Restart: a fresh Open + map must serve identical bytes.
	st2, err := Open(dir, p)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	v2 := st2.Acquire()
	defer v2.Release()
	restarted := mustBanded(t, tb, p, 0, v2.Bands(0))
	assertPoolsIdentical(t, heap, restarted, "restarted vs heap")
}

func TestCompactMergePreservesBytes(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	tb := testTable(t, p.Rows, 20, 0)
	heap := mustHeap(t, tb, p, 0)

	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	banded := mustBanded(t, tb, p, 0, nil)
	sealAll(t, st, banded, 4)

	before := ReadStats()
	did, err := st.Compact(4)
	if err != nil || !did {
		t.Fatalf("Compact: did=%v err=%v", did, err)
	}
	after := ReadStats()
	if d := after.Compactions - before.Compactions; d != 1 {
		t.Fatalf("compactions delta %d, want 1", d)
	}
	segs := st.Segments()
	if len(segs) != 1 || segs[0].Level != 1 || segs[0].T0 != 0 || segs[0].T1 != 16 {
		t.Fatalf("post-compaction segments %+v, want one L1 [0,16)", segs)
	}
	v := st.Acquire()
	defer v.Release()
	merged := mustBanded(t, tb, p, 0, v.Bands(0))
	assertPoolsIdentical(t, heap, merged, "compacted vs heap")

	// A second compaction has nothing to do.
	if did, err := st.Compact(4); err != nil || did {
		t.Fatalf("idle Compact: did=%v err=%v", did, err)
	}
}

func TestRefcountedReclamation(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	tb := testTable(t, p.Rows, 20, 0)

	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	banded := mustBanded(t, tb, p, 0, nil)
	sealAll(t, st, banded, 4)
	oldFiles := st.SegmentFiles()

	// A snapshot-style view pins the pre-compaction set.
	v := st.Acquire()
	pool := mustBanded(t, tb, p, 0, v.Bands(0))

	before := ReadStats()
	if did, err := st.Compact(4); err != nil || !did {
		t.Fatalf("Compact: did=%v err=%v", did, err)
	}
	// Old files must still exist (view holds them) and old bytes must
	// still be readable through the pool.
	for _, f := range oldFiles {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("pre-compaction segment %s vanished while referenced: %v", f, err)
		}
	}
	if _, err := pool.Sketch(table.Rect{R0: 0, C0: 0, Rows: 4, Cols: 4}, nil); err != nil {
		t.Fatalf("query over retired-but-referenced segments: %v", err)
	}

	v.Release()
	v.Release() // idempotent
	for _, f := range oldFiles {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Fatalf("retired segment %s not unlinked after last reference dropped", f)
		}
	}
	after := ReadStats()
	if d := after.Reclaimed - before.Reclaimed; d != 4 {
		t.Fatalf("reclaimed delta %d, want 4", d)
	}
}

func TestTrimDropsWholeSegments(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	tb := testTable(t, p.Rows, 20, 0)

	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	banded := mustBanded(t, tb, p, 0, nil)
	sealAll(t, st, banded, 4)

	// Ask to keep from column 6: only segments with T1 ≤ 6 drop, so the
	// new base is 4, not 6 — trims round down to whole segments.
	newBase, err := st.Trim(6)
	if err != nil {
		t.Fatalf("Trim: %v", err)
	}
	if newBase != 4 || st.BaseCol() != 4 {
		t.Fatalf("trim to base %d (store %d), want 4", newBase, st.BaseCol())
	}
	if n := len(st.Segments()); n != 3 {
		t.Fatalf("%d segments after trim, want 3", n)
	}

	// The trimmed store serves the suffix window byte-identically to a
	// from-scratch build over it (segment alignment keeps the absolute
	// panel grid intact).
	sub := tb.Sub(table.Rect{R0: 0, C0: 4, Rows: p.Rows, Cols: 16})
	heap := mustHeap(t, sub, p, 4)
	v := st.Acquire()
	defer v.Release()
	pool := mustBanded(t, sub, p, 4, v.Bands(4))
	assertPoolsIdentical(t, heap, pool, "trimmed vs heap-over-suffix")

	// Trim below the current base is a no-op.
	if nb, err := st.Trim(2); err != nil || nb != 4 {
		t.Fatalf("no-op trim: base %d err %v", nb, err)
	}
}

func TestOpenRejectsParamMismatch(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st.Close()
	q := p
	q.Seed = 7
	if _, err := Open(dir, q); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("Open with mismatched seed: %v, want ErrParamsMismatch", err)
	}
	// Reset re-keys the directory to the new params.
	if err := Reset(dir, q); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, q)
	if err != nil {
		t.Fatalf("Open after Reset: %v", err)
	}
	st.Close()
}

func TestOpenGCsUnmanifestedSegments(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	tb := testTable(t, p.Rows, 20, 0)
	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	banded := mustBanded(t, tb, p, 0, nil)
	sealAll(t, st, banded, 0)
	st.Close()

	// An orphan that looks like a segment (crash between file write and
	// manifest commit) must be deleted; the live one must survive.
	orphan := filepath.Join(dir, "seg-99999999-l0.seg")
	if err := os.WriteFile(orphan, []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, p)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("unmanifested segment file survived Open")
	}
	if n := len(st2.Segments()); n != 1 {
		t.Fatalf("%d live segments after GC, want 1", n)
	}
}

func TestManifestValidationRejectsHostileEntries(t *testing.T) {
	p := testParams()
	base := &manifest{Version: 1, Params: toManifestParams(p), NextSeq: 10}
	good := Entry{File: "seg-00000001-l0.seg", Seq: 1, T0: 0, T1: 4, Bytes: 100, CRC: 1}
	cases := []struct {
		name   string
		mutate func(*manifest)
	}{
		{"traversal file name", func(m *manifest) {
			m.Segments[0].File = "../../etc/passwd"
		}},
		{"absolute file name", func(m *manifest) {
			m.Segments[0].File = "/etc/passwd"
		}},
		{"temp file name", func(m *manifest) {
			m.Segments[0].File = "seg-x.seg.tmp-123"
		}},
		{"zero column count", func(m *manifest) {
			m.Segments[0].T1 = m.Segments[0].T0
		}},
		{"negative column count", func(m *manifest) {
			m.Segments[0].T1 = m.Segments[0].T0 - 4
		}},
		{"unaligned range", func(m *manifest) {
			m.Segments[0].T1 = m.Segments[0].T0 + 3
		}},
		{"discontiguous tiling", func(m *manifest) {
			m.Segments[0].T0 += 4
			m.Segments[0].T1 += 4
		}},
		{"non-positive size", func(m *manifest) {
			m.Segments[0].Bytes = 0
		}},
		{"negative base", func(m *manifest) {
			m.BaseCol = -4
		}},
	}
	for _, tc := range cases {
		m := *base
		m.Segments = []Entry{good}
		tc.mutate(&m)
		if err := m.validate(); err == nil {
			t.Errorf("%s: validate accepted a hostile manifest", tc.name)
		}
	}
	m := *base
	m.Segments = []Entry{good}
	if err := m.validate(); err != nil {
		t.Fatalf("control manifest rejected: %v", err)
	}
}

func TestBandedAppendSharesSealedBands(t *testing.T) {
	// Append over a banded pool must not copy sealed bands — and the
	// result must match a from-scratch heap build over the wider table.
	p := testParams()
	dir := t.TempDir()
	full := testTable(t, p.Rows, 24, 0)
	narrow := full.Sub(table.Rect{R0: 0, C0: 0, Rows: p.Rows, Cols: 20})

	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	banded := mustBanded(t, narrow, p, 0, nil)
	sealAll(t, st, banded, 0)
	v := st.Acquire()
	defer v.Release()
	banded, err = banded.Reband(v.Bands(0))
	if err != nil {
		t.Fatalf("Reband: %v", err)
	}
	grown, err := banded.Append(nil, full)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if grown.SealedCols() != banded.SealedCols() {
		t.Fatalf("append changed sealed cols %d → %d", banded.SealedCols(), grown.SealedCols())
	}
	heap := mustHeap(t, full, p, 0)
	assertPoolsIdentical(t, heap, grown, "banded append vs heap")
}
