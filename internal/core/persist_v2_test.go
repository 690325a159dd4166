package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/faultinject"
)

func persistTestPool(t *testing.T, seed uint64) *Pool {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed))
	tb := randTable(rng, 16, 16)
	pool, err := NewPool(tb, 1, 4, seed, PoolOptions{
		MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func poolsEqual(t *testing.T, a, b *Pool) {
	t.Helper()
	if len(a.entries) != len(b.entries) {
		t.Fatalf("entry counts %d vs %d", len(a.entries), len(b.entries))
	}
	for key, sets := range a.entries {
		bsets, ok := b.entries[key]
		if !ok {
			t.Fatalf("size %v missing", key)
		}
		for s := range sets {
			if len(sets[s].data) != len(bsets[s].data) {
				t.Fatalf("size %v set %d payload lengths differ", key, s)
			}
			for i := range sets[s].data {
				if sets[s].data[i] != bsets[s].data[i] {
					t.Fatalf("size %v set %d differs at %d", key, s, i)
				}
			}
		}
	}
}

// A v3 round trip must preserve the streaming-ingest metadata: the panel
// width (so a loaded pool can keep appending) and the base column (so
// HighWaterCols survives restarts).
func TestSaveLoadPreservesIngestMetadata(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 28))
	tb := randTable(rng, 16, 24)
	pool, err := NewPool(tb, 1, 4, 9, PoolOptions{
		MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2,
		PanelCols: 8, BaseCol: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePool(&buf, pool); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPool(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	poolsEqual(t, pool, got)
	if got.PanelCols() != 8 || got.BaseCol() != 40 {
		t.Fatalf("round trip lost metadata: PanelCols=%d BaseCol=%d", got.PanelCols(), got.BaseCol())
	}
	if hw := got.HighWaterCols(); hw != 40+24 {
		t.Fatalf("HighWaterCols = %d, want %d", hw, 40+24)
	}
}

func TestSaveWritesV2(t *testing.T) {
	pool := persistTestPool(t, 22)
	var buf bytes.Buffer
	if err := SavePool(&buf, pool); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if v := uint32(b[4]) | uint32(b[5])<<8 | uint32(b[6])<<16 | uint32(b[7])<<24; v != persistVersion {
		t.Fatalf("saved version %d, want %d", v, persistVersion)
	}
	got, err := LoadPool(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	poolsEqual(t, pool, got)
}

func TestChecksumDetectsEveryBitFlip(t *testing.T) {
	pool := persistTestPool(t, 23)
	var buf bytes.Buffer
	if err := SavePool(&buf, pool); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	sawChecksum := false
	corrupt := make([]byte, len(orig))
	for off := 0; off < len(orig); off++ {
		copy(corrupt, orig)
		corrupt[off] ^= 0x40
		_, err := LoadPool(bytes.NewReader(corrupt))
		if err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", off, len(orig))
		}
		if errors.Is(err, ErrChecksum) {
			sawChecksum = true
		}
	}
	if !sawChecksum {
		t.Fatal("no flip surfaced as ErrChecksum")
	}
}

func TestChecksumDetectsPlaneSetPayloadFlip(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 24))
	tb := randTable(rng, 12, 12)
	sk, err := NewSketcher(1, 4, 4, 4, 3, EstimatorAuto)
	if err != nil {
		t.Fatal(err)
	}
	ps := sk.AllPositions(tb)
	var buf bytes.Buffer
	if err := SavePlaneSet(&buf, ps); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-10] ^= 0x01 // a payload float, inside the final framed section
	_, err = LoadPlaneSet(bytes.NewReader(b))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestSavePoolFileAndLoadPoolFile(t *testing.T) {
	pool := persistTestPool(t, 25)
	path := filepath.Join(t.TempDir(), "pool.skpo")
	if err := SavePoolFile(path, pool); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPoolFile(path)
	if err != nil {
		t.Fatal(err)
	}
	poolsEqual(t, pool, got)
}

func TestSaveLoadPlaneSetFile(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 26))
	tb := randTable(rng, 12, 12)
	sk, err := NewSketcher(1, 4, 4, 4, 3, EstimatorAuto)
	if err != nil {
		t.Fatal(err)
	}
	ps := sk.AllPositions(tb)
	path := filepath.Join(t.TempDir(), "planes.skpl")
	if err := SavePlaneSetFile(path, ps); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlaneSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps.data {
		if got.data[i] != ps.data[i] {
			t.Fatalf("payload differs at %d", i)
		}
	}
}

// TestSavePoolFileCrashMatrix kills SavePoolFile at every write fault
// point — hard failure and torn (short) write — and asserts the previous
// snapshot at the path is untouched and no temp file leaks. This is the
// crash-safety contract: an interrupted save can cost the new snapshot,
// never the old one.
func TestSavePoolFileCrashMatrix(t *testing.T) {
	poolOld := persistTestPool(t, 30)
	poolNew := persistTestPool(t, 31)
	writes, err := faultinject.CountWrites(func(w io.Writer) error {
		return SavePool(w, poolNew)
	})
	if err != nil {
		t.Fatal(err)
	}
	if writes == 0 {
		t.Fatal("no writes counted")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "pool.skpo")
	if err := SavePoolFile(path, poolOld); err != nil {
		t.Fatal(err)
	}
	oldBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Cleanup(func() { atomicio.TestWrapWriter = nil })
	for failAt := 1; failAt <= writes; failAt++ {
		for _, short := range []bool{false, true} {
			atomicio.TestWrapWriter = func(_ string, w io.Writer) io.Writer {
				return &faultinject.Writer{W: w, FailAt: failAt, Short: short}
			}
			err := SavePoolFile(path, poolNew)
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("failAt=%d short=%v: err = %v, want injected fault", failAt, short, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("failAt=%d short=%v: old snapshot gone: %v", failAt, short, err)
			}
			if !bytes.Equal(got, oldBytes) {
				t.Fatalf("failAt=%d short=%v: old snapshot corrupted", failAt, short)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if atomicio.IsTemp(e.Name()) {
					t.Fatalf("failAt=%d short=%v: temp file leaked: %s", failAt, short, e.Name())
				}
			}
			// The surviving snapshot must still load.
			if _, err := LoadPoolFile(path); err != nil {
				t.Fatalf("failAt=%d short=%v: surviving snapshot unloadable: %v", failAt, short, err)
			}
		}
	}

	// With the faults cleared the same save succeeds and replaces.
	atomicio.TestWrapWriter = nil
	if err := SavePoolFile(path, poolNew); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPoolFile(path)
	if err != nil {
		t.Fatal(err)
	}
	poolsEqual(t, poolNew, got)
}
