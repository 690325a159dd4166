// Command tabmine-store manages a day-partitioned table store: append
// days from table/CSV files, list the contents, and export stitched
// ranges for mining.
//
//	tabmine-store -dir ./calls init
//	tabmine-store -dir ./calls append -label mon -in day0.tabf -gzip
//	tabmine-store -dir ./calls list
//	tabmine-store -dir ./calls export -from 0 -to 3 -o week.tabf
//	tabmine-store -dir ./calls fsck
//	tabmine-store -dir ./calls segments
//
// fsck verifies the day files and, once the store has been served
// (tabmine-serve -store), deep-verifies the mmap segment files under
// segments/ too: corrupt segments are quarantined and an
// unreadable segment manifest is rebuilt from the surviving headers.
// segments lists the live segment set — level, column range, CRC
// status, and bytes mapped vs payload.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/segstore"
	"repro/internal/tabfile"
	"repro/internal/table"
	"repro/internal/tabstore"
)

func main() {
	var (
		dir = flag.String("dir", "", "store directory (required)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tabmine-store -dir DIR {init | append | list | export | fsck | segments} [args]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *dir == "" || flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	switch cmd {
	case "init":
		fatal(os.MkdirAll(*dir, 0o755))
		_, err := tabstore.Open(*dir)
		fatal(err)
		fmt.Printf("initialized store at %s\n", *dir)
	case "append":
		runAppend(*dir, args)
	case "list":
		runList(*dir)
	case "export":
		runExport(*dir, args)
	case "fsck":
		runFsck(*dir)
	case "segments":
		runSegments(*dir)
	default:
		fatal(fmt.Errorf("unknown subcommand %q", cmd))
	}
}

func runAppend(dir string, args []string) {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	label := fs.String("label", "", "day label (required)")
	in := fs.String("in", "", "input table file, .csv treated as CSV (required)")
	gz := fs.Bool("gzip", false, "compress the stored day")
	fatal(fs.Parse(args))
	if *label == "" || *in == "" {
		fatal(fmt.Errorf("append needs -label and -in"))
	}
	var (
		tb  *table.Table
		err error
	)
	if strings.HasSuffix(*in, ".csv") {
		f, err2 := os.Open(*in)
		fatal(err2)
		tb, err = tabfile.ReadCSV(f)
		f.Close()
	} else {
		tb, err = tabfile.ReadFile(*in)
	}
	fatal(err)
	s, err := tabstore.Open(dir)
	fatal(err)
	fatal(s.AppendDay(*label, tb, *gz))
	fmt.Printf("appended %q: %dx%d (day %d of store)\n", *label, tb.Rows(), tb.Cols(), s.NumDays())
}

func runList(dir string) {
	s, err := tabstore.Open(dir)
	fatal(err)
	fmt.Printf("store %s: %d days, %d rows\n", dir, s.NumDays(), s.Rows())
	for i, label := range s.Labels() {
		day, err := s.Day(i)
		fatal(err)
		st := day.Summarize()
		fmt.Printf("  [%d] %-12s %d cols  (min %.1f, mean %.1f, max %.1f)\n",
			i, label, day.Cols(), st.Min, st.Mean, st.Max)
	}
}

func runExport(dir string, args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	from := fs.Int("from", 0, "first day (inclusive)")
	to := fs.Int("to", -1, "last day (exclusive; -1 = all)")
	out := fs.String("o", "", "output table file (required)")
	gz := fs.Bool("gzip", false, "compress the export")
	fatal(fs.Parse(args))
	if *out == "" {
		fatal(fmt.Errorf("export needs -o"))
	}
	s, err := tabstore.Open(dir)
	fatal(err)
	end := *to
	if end < 0 {
		end = s.NumDays()
	}
	tb, err := s.LoadRange(*from, end)
	fatal(err)
	fatal(tabfile.WriteFile(*out, tb, *gz))
	fmt.Printf("exported days [%d, %d) as %dx%d to %s\n", *from, end, tb.Rows(), tb.Cols(), *out)
}

// runFsck verifies every day file (existence, CRC32C, decodability,
// dimensions), quarantines corrupt files, and rebuilds the manifest.
// Exit status 1 signals that problems were found, so scripts can gate on
// store health.
func runFsck(dir string) {
	s, err := tabstore.Open(dir)
	fatal(err)
	rep, err := s.Fsck()
	fatal(err)
	fmt.Printf("checked %d days\n", rep.Checked)
	for _, p := range rep.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	for _, f := range rep.Quarantined {
		fmt.Printf("  quarantined: %s -> quarantine/\n", f)
	}
	for _, f := range rep.Missing {
		fmt.Printf("  missing: %s\n", f)
	}
	for _, f := range rep.TempsRemoved {
		fmt.Printf("  removed stray temp: %s\n", f)
	}
	if rep.Rebuilt {
		fmt.Printf("manifest rebuilt: %d days remain\n", s.NumDays())
	}
	healthy := rep.OK()

	// Segment-mode stores keep their mmap segment files under segments/;
	// deep-verify those too (per-lane CRCs, tiling contiguity), sharing
	// the quarantine convention with the day files.
	if st, err := os.Stat(s.SegmentsDir()); err == nil && st.IsDir() {
		srep, err := segstore.Fsck(s.SegmentsDir())
		fatal(err)
		fmt.Printf("checked %d segments\n", srep.Checked)
		for _, p := range srep.Problems {
			fmt.Printf("  problem: %s\n", p)
		}
		for _, f := range srep.Quarantined {
			fmt.Printf("  quarantined: %s -> %s\n", f, "segments/quarantine/")
		}
		for _, f := range srep.TempsRemoved {
			fmt.Printf("  removed stray temp: %s\n", f)
		}
		if srep.Rebuilt {
			fmt.Println("segment manifest rebuilt")
		}
		healthy = healthy && srep.OK()
	}
	if healthy {
		fmt.Println("store is healthy")
	} else {
		os.Exit(1)
	}
}

// runSegments lists the live segment set of a served store:
// level, column range, CRC status, and the byte accounting (what
// serving maps vs the lane payload itself).
func runSegments(dir string) {
	s, err := tabstore.Open(dir)
	fatal(err)
	l, err := segstore.List(s.SegmentsDir())
	if os.IsNotExist(err) {
		fatal(fmt.Errorf("store %s has no segment directory (serve with tabmine-serve -store)", dir))
	}
	fatal(err)
	fmt.Printf("segment store %s: columns [%d, %d) sealed across %d segments\n",
		s.SegmentsDir(), l.BaseCol, l.SealedCol, len(l.Segments))
	var disk, payload int64
	for _, in := range l.Segments {
		status := "CRC ok"
		if !in.CRCOK {
			status = "CRC BAD"
		}
		fmt.Printf("  L%d seq %-6d %-24s cols [%d, %d)  %8d bytes mapped  %8d payload  %s\n",
			in.Level, in.Seq, in.File, in.T0, in.T1, in.MappedBytes, in.PayloadBytes, status)
		disk += in.Bytes
		payload += in.PayloadBytes
	}
	fmt.Printf("total: %d bytes on disk, %d bytes of lane payload\n", disk, payload)
	for _, in := range l.Segments {
		if !in.CRCOK {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tabmine-store: %v\n", err)
		os.Exit(1)
	}
}
