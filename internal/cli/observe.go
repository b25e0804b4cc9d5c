package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"tesa"
	"tesa/internal/telemetry"
)

// Observability bundles the observability flags every tesa command
// shares, so each main registers and tears them down the same way
// instead of repeating the telemetry wiring.
type Observability struct {
	// Metrics enables the end-of-run telemetry summary.
	Metrics bool
	// Trace is the JSONL event-trace output path ("" = off).
	Trace string
	// MetricsAddr is the live exposition address serving /metrics,
	// /debug/vars, /progress, and /debug/pprof ("" = off).
	MetricsAddr string
	// ManifestPath is the run-manifest JSONL output path ("" = the
	// manifest still exists and rides the trace stream and /debug/vars,
	// but gets no file of its own).
	ManifestPath string

	fs *flag.FlagSet
}

// ObservabilityFlags registers -metrics, -trace, -metrics-addr and
// -manifest on fs and returns the struct they populate after
// fs.Parse.
func ObservabilityFlags(fs *flag.FlagSet) *Observability {
	o := &Observability{fs: fs}
	fs.BoolVar(&o.Metrics, "metrics", false, "print an end-of-run telemetry summary")
	fs.StringVar(&o.Trace, "trace", "", "write a JSONL event trace to this file")
	fs.StringVar(&o.MetricsAddr, "metrics-addr", "",
		"serve live /metrics (Prometheus), /debug/vars, /progress and /debug/pprof on this address (e.g. localhost:9090)")
	fs.StringVar(&o.ManifestPath, "manifest", "", "write the run manifest (start and end records) as JSONL to this file")
	return o
}

// Session is one CLI run's observability state: the telemetry hub, the
// live exposition server, and the run manifest, created together by
// Observability.Setup and torn down together by Finish. All methods are
// nil-safe, and a Session whose flags asked for nothing costs nothing.
type Session struct {
	// Tel is the telemetry hub (nil when no flag asked for telemetry —
	// the disabled fast path the evaluators rely on).
	Tel *telemetry.Telemetry
	// Server is the live exposition server (nil without -metrics-addr).
	Server *telemetry.Server
	// Manifest is the run's identity card. Commands Set run-defining
	// facts on it (space fingerprint, seeds, fault spec) as they learn
	// them; Finish finalizes and emits it.
	Manifest *telemetry.Manifest

	o            *Observability
	sum          io.Writer
	telDone      func() error
	manifestSink *telemetry.FileSink
	finished     bool
}

// Setup builds the run's observability session from the parsed flags:
// the telemetry hub and exposition server (per the flags), plus a run
// manifest whose phase-"start" record is written immediately — to the
// -manifest file, the -trace stream, and /debug/vars, whichever exist.
// command names the command and args its command line for the manifest,
// which also records every flag explicitly set on the flag set; sum is
// where Finish prints the -metrics summary (stdout for most commands,
// stderr for CSV emitters). Call Finish before every exit path —
// os.Exit skips defers.
func (o *Observability) Setup(command string, args []string, sum io.Writer) (*Session, error) {
	tel, srv, telDone, err := telemetry.Setup(o.Trace, o.MetricsAddr, o.Metrics)
	if err != nil {
		return nil, err
	}
	s := &Session{Tel: tel, Server: srv, o: o, sum: sum, telDone: telDone}
	s.Manifest = telemetry.NewManifest(command, args)
	flags := map[string]string{}
	o.fs.Visit(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	if len(flags) > 0 {
		s.Manifest.Set("flags", flags)
	}
	s.Manifest.Set("model_version", tesa.ModelVersion)
	s.Manifest.Set("go_version", runtime.Version())
	s.Manifest.Set("gomaxprocs", runtime.GOMAXPROCS(0))
	if o.ManifestPath != "" {
		fs, err := telemetry.NewFileSink(o.ManifestPath)
		if err != nil {
			_ = telDone()
			return nil, fmt.Errorf("-manifest: %w", err)
		}
		s.manifestSink = fs
	}
	if err := s.Manifest.EmitStart(s.manifestSink); err != nil {
		fmt.Fprintf(os.Stderr, "manifest: %v\n", err)
	}
	if tel.Tracing() {
		tel.Emit(telemetry.ManifestEvent, s.Manifest.Snapshot())
	}
	srv.PublishManifest(s.Manifest.Snapshot())
	return s, nil
}

// Progress wraps a command's progress callback so every update is also
// published to the exposition server's /progress endpoint. Without a
// server the inner callback is returned unchanged (possibly nil, which
// keeps the engines' zero-cost disabled path).
func (s *Session) Progress(inner tesa.ProgressFunc) tesa.ProgressFunc {
	if s == nil || s.Server == nil {
		return inner
	}
	srv := s.Server
	return func(p tesa.Progress) {
		srv.PublishProgress(progressFields(p))
		if inner != nil {
			inner(p)
		}
	}
}

// progressFields flattens a Progress update into the compact, always-
// finite map served at /progress. The incumbent is reduced to its
// design point and objective — the full Evaluation can carry NaN fields
// (PeakTempC with thermal disabled) that must never reach JSON.
func progressFields(p tesa.Progress) map[string]any {
	f := map[string]any{
		"phase":       p.Phase,
		"done":        p.Done,
		"total":       p.Total,
		"quarantined": p.Quarantined,
		"improved":    p.Improved,
		"elapsed_sec": p.Elapsed.Seconds(),
	}
	if p.Incumbent != nil {
		f["best_dim"] = p.Incumbent.Point.ArrayDim
		f["best_ics"] = p.Incumbent.Point.ICSUM
		if obj := p.Incumbent.Objective; !math.IsNaN(obj) && !math.IsInf(obj, 0) {
			f["best_obj"] = obj
		}
	}
	return f
}

// Finish finalizes the run: the manifest's phase-"end" record — status,
// wall/CPU time, and the final metrics snapshot with its quarantine and
// memo tallies — goes to the -manifest file, the -trace stream, and
// /debug/vars; the -metrics summary prints; the trace flushes and the
// server shuts down. Idempotent, so commands with multiple exit paths
// can call it from each.
func (s *Session) Finish(status string) {
	if s == nil || s.finished {
		return
	}
	s.finished = true
	rec := s.Manifest.Finalize(s.Tel.Registry(), status)
	s.Server.PublishManifest(rec)
	if s.Tel.Tracing() {
		s.Tel.Emit(telemetry.ManifestEvent, rec)
	}
	if s.manifestSink != nil {
		s.manifestSink.Emit(telemetry.ManifestEvent, rec)
		if err := s.manifestSink.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "manifest: %v\n", err)
		}
	}
	if s.o.Metrics {
		fmt.Fprint(s.sum, s.Tel.Summary())
	}
	if err := s.telDone(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// MemoFlags holds the memo-store flag of the search commands: -memo-dir
// persists the run's memo store across invocations.
type MemoFlags struct {
	// Dir is the on-disk cache directory (-memo-dir).
	Dir string
}

// MemoFlagsRegister registers -memo-dir on fs and returns the struct it
// populates after fs.Parse.
func MemoFlagsRegister(fs *flag.FlagSet) *MemoFlags {
	m := &MemoFlags{}
	fs.StringVar(&m.Dir, "memo-dir", "", "persist the run's memo store in this directory across invocations")
	return m
}

// Store returns the run's memo store, which every evaluator the command
// builds shares: a fresh in-memory store, warm-started from -memo-dir
// when one was given. The returned closer flushes the on-disk cache (a
// no-op without -memo-dir); call it before every exit path.
func (m *MemoFlags) Store() (*tesa.MemoStore, func() error, error) {
	s := tesa.NewMemoStore()
	if m.Dir == "" {
		return s, func() error { return nil }, nil
	}
	closer, err := tesa.LoadMemoDir(s, m.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("-memo-dir: %w", err)
	}
	return s, closer, nil
}
