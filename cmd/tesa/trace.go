package main

import (
	"context"
	"errors"
	"flag"
	"fmt"

	"tesa/internal/trace"
)

// traceUsage is the synopsis of `tesa trace`.
const traceUsage = `usage:
  tesa trace report run.jsonl [more.jsonl ...]
  tesa trace diff [-threshold 0.10] [-strict] before.jsonl after.jsonl
`

// traceCmd is `tesa trace`: offline analysis of the JSONL streams the
// other subcommands write (-trace event streams, -manifest run
// manifests), in two modes, report and diff.
func traceCmd(c *command) func(ctx context.Context) error {
	c.fs.Usage = func() { fmt.Fprint(c.stderr, traceUsage) }

	return func(ctx context.Context) error {
		switch mode, args := c.fs.Arg(0), c.fs.Args(); mode {
		case "report":
			return c.traceReport(args[1:])
		case "diff":
			return c.traceDiff(args[1:])
		case "":
			return usageError{errors.New("trace: want a mode, report or diff")}
		default:
			return usageError{fmt.Errorf("trace: unknown mode %q (want report or diff)", mode)}
		}
	}
}

// traceReport summarizes each file independently.
func (c *command) traceReport(paths []string) error {
	if len(paths) == 0 {
		return usageError{errors.New("trace report: need at least one JSONL file")}
	}
	for i, path := range paths {
		if i > 0 {
			fmt.Fprintln(c.stdout)
		}
		s, err := trace.Load(path)
		if err != nil {
			return err
		}
		trace.WriteReport(c.stdout, s)
	}
	return nil
}

// diffFlags is the flag set of `tesa trace diff`.
func diffFlags(c *command) (fs *flag.FlagSet, threshold *float64, strict *bool) {
	fs = flag.NewFlagSet("tesa trace diff", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	fs.Usage = c.fs.Usage
	threshold = fs.Float64("threshold", trace.DefaultDiffThreshold,
		"relative change flagged as significant (0.10 = 10%)")
	strict = fs.Bool("strict", false, "exit 3 when any regression is flagged")
	return fs, threshold, strict
}

// traceDiff compares exactly two files, before then after; with
// -strict a flagged regression exits 3.
func (c *command) traceDiff(args []string) error {
	fs, threshold, strict := diffFlags(c)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagsReported
	}
	if fs.NArg() != 2 {
		return usageError{errors.New("trace diff: need exactly two JSONL files (before, after)")}
	}
	var runs [2]*trace.Summary
	for i := range runs {
		s, err := trace.Load(fs.Arg(i))
		if err != nil {
			return err
		}
		if !s.HasManifest() {
			fmt.Fprintf(c.stderr, "%s: no finalized run.manifest record; latency comparison will be empty\n", s.Path)
		}
		runs[i] = s
	}
	d := trace.Compare(runs[0], runs[1], *threshold)
	trace.WriteDiff(c.stdout, d)
	if *strict && d.Regressions > 0 {
		return &exitError{3, "regression"}
	}
	return nil
}
