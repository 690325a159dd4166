package segstore

import (
	"expvar"
	"fmt"
)

// Segment-store expvars, exported on /debug/vars next to the server's
// tabmine_* family. Counters are *_total and only ever increase; the
// byte and per-level figures are gauges maintained on map/unmap and
// manifest swap. Tests assert deltas, never absolutes, since several
// stores may share one process.
var (
	mSegCreated       = expvar.NewInt("tabmine_seg_created_total")
	mSegReclaimed     = expvar.NewInt("tabmine_seg_reclaimed_total")
	mSegCompactions   = expvar.NewInt("tabmine_seg_compactions_total")
	mSegCompactFailed = expvar.NewInt("tabmine_seg_compactions_failed_total")
	mSegBytesMapped   = expvar.NewInt("tabmine_seg_bytes_mapped")
	mSegBytesDisk     = expvar.NewInt("tabmine_seg_bytes_disk")
	mSegLevels        = expvar.NewMap("tabmine_seg_level_segments")
	// mRestartReplayDays is the number of WAL days the last Resume had
	// to replay before serving: days the sealed prefix should have
	// covered but did not. 0 after a drained shutdown or a SIGKILL past
	// the last seal — restart maps segments and rebuilds only the fringe.
	mRestartReplayDays = expvar.NewInt("tabmine_seg_restart_replay_days")
)

// SetRestartReplayDays records how many WAL days a Resume replayed
// before first serve.
func SetRestartReplayDays(n int) { mRestartReplayDays.Set(int64(n)) }

func levelKey(level int) string { return fmt.Sprintf("L%d", level) }

// Stats is a point-in-time copy of the segment-store expvars, for
// delta assertions in tests.
type Stats struct {
	Created, Reclaimed       int64
	Compactions, CompactFail int64
	BytesMapped, BytesDisk   int64
	RestartReplayDays        int64
}

// ReadStats snapshots the segment-store expvars.
func ReadStats() Stats {
	return Stats{
		Created:           mSegCreated.Value(),
		Reclaimed:         mSegReclaimed.Value(),
		Compactions:       mSegCompactions.Value(),
		CompactFail:       mSegCompactFailed.Value(),
		BytesMapped:       mSegBytesMapped.Value(),
		BytesDisk:         mSegBytesDisk.Value(),
		RestartReplayDays: mRestartReplayDays.Value(),
	}
}
