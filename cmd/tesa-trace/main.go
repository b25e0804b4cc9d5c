// Command tesa-trace analyzes the JSONL streams the other tesa
// commands emit — -trace event streams, -manifest run manifests, and
// checkpoint files — without re-running anything.
//
// Usage:
//
//	tesa-trace report run.jsonl [more.jsonl ...]
//	tesa-trace diff [-threshold 0.10] [-strict] before.jsonl after.jsonl
//
// report prints, per file: the run's identity (id, command, status,
// wall/CPU time from its run.manifest records), the per-stage latency
// breakdown (count, p50/p95/p99, total self time, self% of summed
// stage time, cum% of end-to-end pipeline time), the effectiveness of
// the caching layers (evaluator cache, start screening, thermal memo,
// memo store), the thermal fidelity-ladder tallies, quarantine counts,
// and the stream's event histogram.
//
// diff compares two runs stage-by-stage on p95 latency (mean alongside)
// and effectiveness rates, flagging changes beyond -threshold as
// REGRESSION / improved. With -strict the command exits 3 when any
// regression is flagged — the CI guard mode. A stage present in only
// the second run always counts as a regression (new latency).
//
// Both modes want streams that contain run.manifest records: every
// command writes them into -trace and -manifest files automatically.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tesa/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one tesa-trace command line and returns its exit code:
// 0 on success, 1 when a file cannot be read, 2 on a usage error, and 3
// when diff -strict flags a regression.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "report":
		return report(args[1:], stdout, stderr)
	case "diff":
		return diff(args[1:], stdout, stderr)
	case "-h", "-help", "--help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "unknown mode %q\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage:
  tesa-trace report run.jsonl [more.jsonl ...]
  tesa-trace diff [-threshold 0.10] [-strict] before.jsonl after.jsonl
`)
}

// report summarizes each file independently.
func report(paths []string, stdout, stderr io.Writer) int {
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "report: need at least one JSONL file")
		return 2
	}
	for i, path := range paths {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		s, err := trace.Load(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		trace.WriteReport(stdout, s)
	}
	return 0
}

// diff compares exactly two files, before then after.
func diff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", trace.DefaultDiffThreshold,
		"relative change flagged as significant (0.10 = 10%)")
	strict := fs.Bool("strict", false, "exit 3 when any regression is flagged")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "diff: need exactly two JSONL files (before, after)")
		return 2
	}
	var runs [2]*trace.Summary
	for i := range runs {
		s, err := trace.Load(fs.Arg(i))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if !s.HasManifest() {
			fmt.Fprintf(stderr, "%s: no finalized run.manifest record; latency comparison will be empty\n", s.Path)
		}
		runs[i] = s
	}
	d := trace.Compare(runs[0], runs[1], *threshold)
	trace.WriteDiff(stdout, d)
	if *strict && d.Regressions > 0 {
		return 3
	}
	return 0
}
