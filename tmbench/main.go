// Command tmbench is the repository benchmark: it drives the real
// serving stack (internal/server, internal/coord, internal/ingest) over
// loopback HTTP from one process, checks every answer against an
// identically built reference, and prints end-to-end metrics (untraced
// run) or per-layer metrics (traced run, --trace 1).
//
// Usage, from the repository root:
//
//	bash tmbench/run.sh --workload query-exact --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every metric is also printed
// on its own line above it, with its unit. NOTES.md describes the
// workloads and how to read the numbers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every input to test size (the short-mode test).
	tiny bool
	// plantWrong, when > 0, corrupts the answer to the plantWrong-th
	// request the served stack handles: the oracle must count it.
	plantWrong int64
	// workDir holds the run's scratch files (ingest stores, traces); it
	// lives inside the checkout.
	workDir string
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(opts options, rep *report) error{
	"query-exact":  runQueryExact,
	"fleet-sketch": runFleetSketch,
	"ingest-serve": runIngestServe,
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "query-exact, fleet-sketch or ingest-serve")
	flag.Uint64Var(&opts.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&opts.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	opts.trace = trace == 1
	opts.workDir = filepath.Join(".bench_build", "tmbench-work")
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tmbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its report.
func run(opts options, out io.Writer) error {
	runWorkload, ok := workloads[opts.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", opts.workload)
	}
	if opts.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return err
	}
	rep, err := execute(opts, runWorkload)
	if err != nil {
		return err
	}
	return rep.print(out, opts.trace)
}

// execute runs a workload between the two host calibrations.
func execute(opts options, runWorkload func(options, *report) error) (*report, error) {
	rep := newReport()
	calStart := calibrateFFT()
	if err := runWorkload(opts, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", opts.workload, err)
	}
	calEnd := calibrateFFT()
	rep.set("host.calib_fft_us", (calStart+calEnd)/2)
	rep.note("host.calib_fft_us start %.2f end %.2f", calStart, calEnd)
	if opts.trace {
		if err := rep.tr.write(filepath.Join(opts.workDir,
			fmt.Sprintf("trace-%s-seed%d.jsonl", opts.workload, opts.seed))); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
