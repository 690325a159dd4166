package segstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/atomicio"
	"repro/internal/core"
)

// segment is one live, mapped segment file with its reference count.
// References are held by (a) manifest membership — one ref taken when
// the store maps the file, released when a manifest swap retires it —
// and (b) every View. When the count reaches zero the mapping is
// released and, if the segment was retired from the manifest, the file
// is unlinked: the refcounted-epoch reclamation of the tentpole. A
// retired segment can never be re-referenced (Acquire only sees
// manifest members), so zero is final.
type segment struct {
	entry   Entry
	path    string
	hdr     *segHeader
	data    []byte
	mapped  bool
	lanes   map[core.LaneID][]float64
	refs    atomic.Int64
	retired atomic.Bool
}

func (sg *segment) ref() { sg.refs.Add(1) }

func (sg *segment) unref() {
	if n := sg.refs.Add(-1); n > 0 {
		return
	} else if n < 0 {
		panic("segstore: segment reference count went negative")
	}
	mSegBytesMapped.Add(-int64(len(sg.data)))
	_ = unmapFile(sg.data, sg.mapped)
	sg.data, sg.lanes = nil, nil
	if sg.retired.Load() {
		if os.Remove(sg.path) == nil {
			mSegReclaimed.Add(1)
		}
	}
}

// Store manages one segment directory: the manifest, the mapped live
// segments, and their lifecycles. All methods are safe for concurrent
// use; mutations (WriteL0, Trim, Compact) serialize on an internal
// mutex while readers of already-acquired Views touch no store state.
type Store struct {
	dir    string
	params Params

	mu   sync.Mutex
	man  *manifest
	segs map[uint64]*segment
}

// ErrParamsMismatch reports a segment directory whose manifest was
// written for different pool parameters than the ones Open was given.
// Its segments are unusable for this pool; Reset discards them.
var ErrParamsMismatch = errors.New("segstore: manifest params do not match the configured params")

// Open opens (or initializes) the segment store in dir for the given
// pool parameters. Stray temp files are cleaned, segment files the
// manifest does not name are deleted (debris of a crash mid-write), and
// every live segment's header is validated and its payload mapped —
// restart cost is O(segments), not O(bytes). A manifest whose recorded
// parameters differ from params fails with ErrParamsMismatch: segments
// are bound to the sketch seed and geometry, and serving mismatched
// bytes would be silent corruption. Corrupt segments are also hard errors — run fsck
// (tabmine-store fsck) to quarantine and truncate.
func Open(dir string, params Params) (*Store, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := atomicio.CleanTemps(dir); err != nil {
		return nil, err
	}
	man, err := readManifest(dir)
	if os.IsNotExist(err) {
		man = emptyManifest(params)
		if err := writeManifest(dir, man); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	if man.Params.params() != params {
		return nil, fmt.Errorf("%w: manifest %+v, configured %+v",
			ErrParamsMismatch, man.Params.params(), params)
	}

	st := &Store{dir: dir, params: params, man: man, segs: make(map[uint64]*segment)}

	// GC: a crash between writing a segment file and committing the
	// manifest leaves an unmanifested file; the manifest is authoritative,
	// so such files are deleted (their columns are still in the WAL).
	live := make(map[string]bool, len(man.Segments))
	for _, e := range man.Segments {
		live[e.File] = true
	}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || live[name] || !isSegmentName(name) {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			mSegReclaimed.Add(1)
		}
	}

	for _, e := range man.Segments {
		sg, err := st.openSegment(e)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("segstore: segment %q: %w (run fsck to quarantine)", e.File, err)
		}
		st.segs[e.Seq] = sg
		mSegLevels.Add(levelKey(e.Level), 1)
		mSegBytesDisk.Add(e.Bytes)
	}
	return st, nil
}

// Reset replaces dir's manifest with an empty one for params, disowning
// every segment the old manifest named; the next Open deletes their
// files as unmanifested debris. It is the recovery for
// ErrParamsMismatch when the caller can rebuild the sealed prefix from
// its source data.
func Reset(dir string, params Params) error {
	return writeManifest(dir, emptyManifest(params))
}

func emptyManifest(params Params) *manifest {
	return &manifest{Version: 1, Params: toManifestParams(params), NextSeq: 1}
}

// isSegmentName reports whether name looks like a segment file this
// package wrote.
func isSegmentName(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg")
}

// openSegment opens, validates (header only), and maps one manifest
// entry. The file descriptor is closed after mapping; the mapping keeps
// the pages.
func (st *Store) openSegment(e Entry) (*segment, error) {
	path := filepath.Join(st.dir, e.File)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h, err := parseSegHeader(f)
	if err != nil {
		return nil, err
	}
	if h.Params != st.params {
		return nil, fmt.Errorf("header params %+v do not match store %+v", h.Params, st.params)
	}
	if h.Level != e.Level || h.Seq != e.Seq || h.T0 != e.T0 || h.T1 != e.T1 {
		return nil, fmt.Errorf("header (L%d seq %d [%d,%d)) disagrees with manifest (L%d seq %d [%d,%d))",
			h.Level, h.Seq, h.T0, h.T1, e.Level, e.Seq, e.T0, e.T1)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() != e.Bytes || fi.Size() < h.size() {
		return nil, fmt.Errorf("file is %d bytes, manifest records %d, header needs %d",
			fi.Size(), e.Bytes, h.size())
	}
	data, mapped, err := mapFile(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("mapping: %w", err)
	}
	sg := &segment{entry: e, path: path, hdr: h, data: data, mapped: mapped}
	sg.lanes = make(map[core.LaneID][]float64, len(h.Lanes))
	for _, lm := range h.Lanes {
		b := data[lm.Off : lm.Off+lm.Floats*8]
		sg.lanes[lm.ID] = floatView(b)
	}
	sg.refs.Store(1) // the manifest-membership reference
	mSegBytesMapped.Add(int64(len(data)))
	return sg, nil
}

// floatView reinterprets little-endian float64 bytes in place. b must
// be 8-byte aligned (guaranteed: blob offsets are page-aligned within a
// page-aligned mapping, and the non-mmap fallback allocates aligned).
func floatView(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 != 0 {
		panic("segstore: unaligned segment blob")
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// Close releases the store's manifest references. Outstanding Views
// keep their segments alive until released.
func (st *Store) Close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for seq, sg := range st.segs {
		delete(st.segs, seq)
		mSegLevels.Add(levelKey(sg.entry.Level), -1)
		mSegBytesDisk.Add(-sg.entry.Bytes)
		sg.unref()
	}
}

// BaseCol returns the absolute stream column the live segment set
// starts at.
func (st *Store) BaseCol() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.man.BaseCol
}

// SealedCol returns the exclusive absolute column the live segment set
// covers up to (= BaseCol when empty).
func (st *Store) SealedCol() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.man.sealedCol()
}

// Params returns the pool parameters the store is bound to.
func (st *Store) Params() Params { return st.params }

// Segments returns a copy of the live manifest entries in column order.
func (st *Store) Segments() []Entry {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]Entry(nil), st.man.Segments...)
}

// View pins a consistent snapshot of the live segment set: every
// segment holds a reference until Release. Views are what pools and
// served snapshots hold — a compaction or trim swapping the manifest
// never invalidates an acquired View's bytes.
type View struct {
	segs     []*segment
	base     int
	sealed   int // absolute sealed column
	released atomic.Bool
}

// Acquire returns a View of the current live segment set.
func (st *Store) Acquire() *View {
	st.mu.Lock()
	defer st.mu.Unlock()
	v := &View{base: st.man.BaseCol, sealed: st.man.sealedCol()}
	for _, e := range st.man.Segments {
		sg := st.segs[e.Seq]
		sg.ref()
		v.segs = append(v.segs, sg)
	}
	return v
}

// Clone returns an independent reference to the same segment set (for
// handing one to a published snapshot while the ingester keeps its
// working reference).
func (v *View) Clone() *View {
	if v.released.Load() {
		panic("segstore: Clone of released View")
	}
	nv := &View{base: v.base, sealed: v.sealed, segs: v.segs}
	for _, sg := range v.segs {
		sg.ref()
	}
	return nv
}

// Release drops the view's references. Idempotent.
func (v *View) Release() {
	if !v.released.CompareAndSwap(false, true) {
		return
	}
	for _, sg := range v.segs {
		sg.unref()
	}
}

// BaseCol returns the absolute column the view's first segment starts
// at (the window base at acquire time).
func (v *View) BaseCol() int { return v.base }

// SealedCol returns the exclusive absolute column the view covers to.
func (v *View) SealedCol() int { return v.sealed }

// NumSegments returns how many segments the view pins.
func (v *View) NumSegments() int { return len(v.segs) }

// Bands adapts the view's mapped segments to core.SealedBand for
// NewBandedPool / Reband over a pool whose table column 0 is absolute
// column base. base must be ≤ the view's base (a pool never starts
// after its sealed bands); segments before base are skipped, which
// cannot happen in normal operation.
func (v *View) Bands(base int) []core.SealedBand {
	if v.released.Load() {
		panic("segstore: Bands of released View")
	}
	bands := make([]core.SealedBand, 0, len(v.segs))
	for _, sg := range v.segs {
		sg := sg
		bands = append(bands, core.SealedBand{
			C0: sg.entry.T0 - base, C1: sg.entry.T1 - base,
			Lane: func(id core.LaneID) []float64 { return sg.lanes[id] },
		})
	}
	return bands
}

// WriteL0 seals absolute columns [t0, t1) of pl — which must lie inside
// pl's heap fringe — as a new level-0 segment: the file is written and
// fsynced first (atomicio temp + rename), then the manifest commits it.
// A crash between the two leaves the old manifest naming the old set;
// the orphan file is deleted on the next Open and the columns replayed
// from the WAL, so WAL ack semantics are unchanged.
func (st *Store) WriteL0(pl *core.Pool, t0, t1 int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	align := st.params.SegAlign()
	if t0 != st.man.sealedCol() {
		return fmt.Errorf("segstore: L0 starts at %d, store is sealed to %d", t0, st.man.sealedCol())
	}
	if t1 <= t0 || t0%align != 0 || t1%align != 0 {
		return fmt.Errorf("segstore: L0 range [%d,%d) empty or unaligned to %d", t0, t1, align)
	}
	base := pl.BaseCol()
	if t0 < base {
		return fmt.Errorf("segstore: L0 range [%d,%d) precedes pool base %d", t0, t1, base)
	}
	seq := st.man.NextSeq
	name := fmt.Sprintf("seg-%08d-l0.seg", seq)
	srcs := make([]laneSource, 0, len(st.params.lanes()))
	for _, id := range st.params.lanes() {
		id := id
		srcs = append(srcs, laneSource{
			ID: id,
			Read: func(dst []float64) ([]float64, error) {
				return pl.CopyLaneBand(id, t0-base, t1-base, dst)
			},
		})
	}
	entry, err := writeSegmentFile(filepath.Join(st.dir, name), st.params, 0, seq, t0, t1, srcs)
	if err != nil {
		return err
	}
	return st.commitLocked([]Entry{entry}, nil, func(m *manifest) {
		m.Segments = append(m.Segments, entry)
		m.NextSeq = seq + 1
	})
}

// commitLocked maps added segments, swaps the manifest via mutate, and
// retires removed segments — the single mutation path WriteL0, Trim,
// and Compact share. Called with st.mu held. On manifest-write failure
// the added files are deleted and the live set is unchanged.
func (st *Store) commitLocked(added []Entry, removed []Entry, mutate func(*manifest)) error {
	newSegs := make([]*segment, 0, len(added))
	cleanup := func() {
		for _, sg := range newSegs {
			mSegBytesMapped.Add(-int64(len(sg.data)))
			_ = unmapFile(sg.data, sg.mapped)
			_ = os.Remove(sg.path)
		}
	}
	for _, e := range added {
		sg, err := st.openSegment(e)
		if err != nil {
			cleanup()
			return fmt.Errorf("segstore: reopening just-written segment %q: %w", e.File, err)
		}
		newSegs = append(newSegs, sg)
	}
	next := *st.man
	next.Segments = append([]Entry(nil), st.man.Segments...)
	mutate(&next)
	if err := writeManifest(st.dir, &next); err != nil {
		cleanup()
		return err
	}
	st.man = &next
	for _, sg := range newSegs {
		st.segs[sg.entry.Seq] = sg
		mSegCreated.Add(1)
		mSegLevels.Add(levelKey(sg.entry.Level), 1)
		mSegBytesDisk.Add(sg.entry.Bytes)
	}
	for _, e := range removed {
		sg := st.segs[e.Seq]
		delete(st.segs, e.Seq)
		mSegLevels.Add(levelKey(e.Level), -1)
		mSegBytesDisk.Add(-e.Bytes)
		sg.retired.Store(true)
		sg.unref()
	}
	return nil
}

// Trim drops every leading segment entirely before absolute column
// keepFrom — window trimming as whole-segment deletion. Returns the new
// base column (unchanged if nothing could be dropped). Files of dropped
// segments are unlinked once their last View reference releases.
func (st *Store) Trim(keepFrom int) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for n < len(st.man.Segments) && st.man.Segments[n].T1 <= keepFrom {
		n++
	}
	if n == 0 {
		return st.man.BaseCol, nil
	}
	dropped := append([]Entry(nil), st.man.Segments[:n]...)
	newBase := dropped[n-1].T1
	if err := st.commitLocked(nil, dropped, func(m *manifest) {
		m.Segments = append([]Entry(nil), m.Segments[n:]...)
		m.BaseCol = newBase
	}); err != nil {
		return st.man.BaseCol, err
	}
	return newBase, nil
}

// Sort of the interface boundary: tests reach into the live set.
func (st *Store) liveRefs() map[uint64]int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[uint64]int64, len(st.segs))
	for seq, sg := range st.segs {
		out[seq] = sg.refs.Load()
	}
	return out
}

// SegmentFiles returns the sorted live segment file names (tests and
// tooling).
func (st *Store) SegmentFiles() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	names := make([]string, 0, len(st.man.Segments))
	for _, e := range st.man.Segments {
		names = append(names, e.File)
	}
	sort.Strings(names)
	return names
}

// laneSource feeds one lane's band floats to the segment writer.
type laneSource struct {
	ID   core.LaneID
	Read func(dst []float64) ([]float64, error)
}

// writeSegmentFile writes one segment atomically (temp + fsync +
// rename) and returns its manifest entry. Lane payloads are produced
// twice — once to compute per-lane CRCs for the header, once to stream
// the blobs — so nothing is buffered whole.
func writeSegmentFile(path string, params Params, level int, seq uint64, t0, t1 int, srcs []laneSource) (Entry, error) {
	metas := make([]laneMeta, len(srcs))
	var scratch []float64
	for n, src := range srcs {
		floats, err := src.Read(scratch)
		if err != nil {
			return Entry{}, err
		}
		scratch = floats
		var crc uint32
		if err := encodeFloats(floats, &crc, nil); err != nil {
			return Entry{}, err
		}
		metas[n] = laneMeta{ID: src.ID, Floats: int64(len(floats)), CRC: crc}
	}
	off := alignUp(int64(headerFrameLen(len(metas))))
	for n := range metas {
		metas[n].Off = off
		off = alignUp(off + metas[n].Floats*8)
	}
	h := &segHeader{Params: params, Level: level, Seq: seq, T0: t0, T1: t1, Lanes: metas}
	if err := h.validate(); err != nil {
		return Entry{}, err
	}
	var fileCRC uint32
	var fileBytes int64
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		cw := &crcWriter{w: w}
		if _, err := cw.Write(h.encode()); err != nil {
			return err
		}
		pad := make([]byte, segPageAlign)
		for n, lm := range metas {
			for cw.n < lm.Off {
				pn := lm.Off - cw.n
				if pn > int64(len(pad)) {
					pn = int64(len(pad))
				}
				if _, err := cw.Write(pad[:pn]); err != nil {
					return err
				}
			}
			floats, err := srcs[n].Read(scratch)
			if err != nil {
				return err
			}
			scratch = floats
			var crc uint32
			if err := encodeFloats(floats, &crc, cw); err != nil {
				return err
			}
			if crc != lm.CRC {
				return fmt.Errorf("segstore: lane %+v bytes changed between CRC and write passes", lm.ID)
			}
		}
		fileCRC, fileBytes = cw.crc, cw.n
		return nil
	})
	if err != nil {
		return Entry{}, err
	}
	return Entry{File: filepath.Base(path), Level: level, Seq: seq, T0: t0, T1: t1,
		CRC: fileCRC, Bytes: fileBytes}, nil
}
