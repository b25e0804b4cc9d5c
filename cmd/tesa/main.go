// Command tesa is TESA's command-line front end: the design-space
// exploration subcommands, which map one-to-one onto the jobspec kinds
// that tesa-server runs, plus the paper's single-point tools, the
// report generator and the trace analyzer.
//
// Usage:
//
//	tesa [optimize] [flags]   multi-start annealer for one constraint corner
//	tesa sweep [flags]        exhaustive sweep vs the annealer (Sec. IV-A)
//	tesa pareto [flags]       cost/DRAM-power front (CSV on stdout)
//	tesa sim [flags]          dynamic multi-tenant scenario for one point
//	tesa thermal [flags]      one point's hottest-phase thermal map (Fig. 6)
//	tesa cycles [flags]       analytic model vs fold-level cycle simulation
//	tesa report [flags]       regenerate the paper's tables and figures
//	tesa trace report|diff    analyze -trace and -manifest JSONL streams
//
// A bare `tesa [flags]` is `tesa optimize`. Run `tesa <kind> -h` for a
// subcommand's flags.
//
// The four job subcommands (optimize, sweep, pareto, sim) build a
// versioned jobspec (tesa.jobspec/v1) from their config flags, or load
// one with -job, resolve it, and execute it through jobspec.Execute —
// the executor tesa-server and the library use — so a spec means the
// same run everywhere. Config flags (-tech, -grid, ...) conflict with
// -job; operational flags (-progress, -deadline, -memo-dir, the
// telemetry flags) compose with it, and an explicit -deadline
// overrides the spec's deadline_sec. The spec's policies (faults,
// stage timeout, failure bounds) and deadline apply in every job
// subcommand.
//
// optimize prints the winning MCM, its mesh, SRAM capacity, full
// evaluation, schedule and floorplan. -workload runs a JSON workload
// instead of the built-in AR/VR one.
//
// sweep evaluates the validation space (64x64..128x128 arrays; -full
// for the whole Table II space) and checks that the annealer, sharing
// the sweep's memo store, matches the global optimum. Its defaults are
// 15 fps and 85 C.
//
// pareto sweeps the Eq. (6) weights (-front weights, -points settings)
// or sweeps the whole space for the exact non-dominated front over cost,
// DRAM power and peak temperature (-front exact). Stdout is pure CSV;
// every summary goes to stderr.
//
// sim drives one design point (-dim, -ics) through seeded
// -tenant name:network:kind:rateRPS:slaSec traffic (kind poisson,
// diurnal or mmpp; richer shapes through -job), coupling per-chiplet
// queues to the transient thermal solver and a DVFS governor tripping at
// -trip (0 = the -temp budget). -draws N scores the point over N seeded
// scenario draws, -events writes the bit-reproducible event log, -json
// prints the wire-form result.
//
// All evaluators of a run share one content-addressed memo store;
// -memo-dir persists it across runs. The three annealing chains and
// their start sampling run on a GOMAXPROCS-wide worker pool; objective
// ties between chains go to the smaller design point (the sweep's
// order), so the winner does not depend on scheduling.
//
// thermal evaluates one design point (-dim, -ics) with the full models
// and prints its hottest-phase thermal map as ASCII art; -csv also
// writes the temperature field. It shares -tech, -freq, -fps, -temp and
// -grid with the job subcommands and resolves them the same way.
//
// cycles cross-validates the analytical performance model against the
// fold-level cycle simulation (the SCALE-Sim analytical vs
// cycle-accurate relationship) for a -dim array: the stall-free
// simulation must reproduce the analytic cycle count of every network,
// and the stall share shows where the paper's stall-free assumption
// holds under the DSE's channel provisioning.
//
// report regenerates the paper's tables (-table 3|4|5), figures
// (-fig 1|5|6), the Sec. IV-B headline (-headline), the Sec. IV-A
// optimizer validation (-validate) or all of them (-all), each next to
// the quantity the paper reports; see EXPERIMENTS.md. Every evaluator
// of the run shares one telemetry hub and one memo store.
//
// trace analyzes the JSONL streams the other subcommands emit without
// re-running anything. `tesa trace report run.jsonl ...` prints each
// run's identity, per-stage latency breakdown, caching effectiveness,
// quarantines and event histogram; `tesa trace diff [-threshold
// 0.10] [-strict] before.jsonl after.jsonl` compares two runs stage by
// stage and, with -strict, exits 3 on any flagged regression.
//
// Observability: -metrics prints an end-of-run summary, -trace streams
// JSONL events, -metrics-addr serves live /metrics, /debug/vars,
// /progress and /debug/pprof (the net/http/pprof profiler), and -manifest
// writes the run manifest as JSONL start/end records. Every subcommand
// but trace takes these flags.
//
// Failure handling: a design point whose evaluation fails (panic, NaN,
// diverged solve, stage timeout) is quarantined and the search goes on
// around it. -max-failures bounds the quarantine, -fail-fast aborts on
// the first failure, and -faults (default $TESA_FAULTS) injects
// deterministic faults.
//
// Exit codes: 0 ok; 1 error; 2 usage or spec error; 3 no feasible
// solution, sweep disagreement, a sim or thermal point that does not
// fit, an analytic/cycle divergence, or a regression under trace diff
// -strict; 4 completed with quarantined points; 130 interrupted
// (SIGINT/SIGTERM or deadline).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"tesa"
	"tesa/internal/cli"
	"tesa/internal/jobspec"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The first signal asks the run to stop at its next cancellation
	// point (report sections, search evaluations); a second one kills
	// the process.
	context.AfterFunc(ctx, stop)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// subcommands maps each subcommand to its constructor, which registers
// the subcommand's flags on c and returns its body.
var subcommands = map[string]func(c *command) func(ctx context.Context) error{
	jobspec.KindOptimize: optimizeCmd,
	jobspec.KindSweep:    sweepCmd,
	jobspec.KindPareto:   paretoCmd,
	jobspec.KindSim:      simCmd,
	"thermal":            thermalCmd,
	"cycles":             cyclesCmd,
	"report":             reportCmd,
	"trace":              traceCmd,
}

// run executes one tesa command line (without the program name) and
// returns its exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	kind := jobspec.KindOptimize
	if len(args) > 0 && subcommands[args[0]] != nil {
		kind, args = args[0], args[1:]
	}
	c := newCommand(kind, stdout, stderr)
	body := subcommands[kind](c)
	c.args = args
	if err := c.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has reported the error
	}
	return c.exit(body(ctx))
}

// command is one subcommand invocation: its flags, output streams, and
// the observability session and memo store it runs under.
type command struct {
	kind           string
	fs             *flag.FlagSet
	args           []string
	stdout, stderr io.Writer
	// sum receives the -metrics summaries: stdout, or stderr where
	// stdout is CSV.
	sum io.Writer
	// config names the flags that configure the job: they build the
	// spec and conflict with -job.
	config   map[string]bool
	jobPath  *string
	obs      *cli.Observability
	memo     *cli.MemoFlags // nil without the search flags
	progress *bool          // nil without the search flags
	sess     *cli.Session
	store    *tesa.MemoStore
	memoDone func() error
}

func newCommand(kind string, stdout, stderr io.Writer) *command {
	fs := flag.NewFlagSet("tesa "+kind, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tesa [optimize|sweep|pareto|sim|thermal|cycles|report|trace] [flags]\n\nflags of tesa %s:\n", kind)
		fs.PrintDefaults()
	}
	return &command{kind: kind, fs: fs, stdout: stdout, stderr: stderr, sum: stdout}
}

// jobFlags are the config flags the subcommands share. The policy
// fields are nil for sim, which takes its policies from a -job spec
// only.
type jobFlags struct {
	tech            *string
	freq, fps, temp *float64
	grid            *int
	seed            *int64
	failFast        *bool
	maxFail         *int
	faults          *string
	stageTO         *time.Duration
}

// pointFlags registers the evaluation flags every design-point
// subcommand shares (-tech, -freq, -fps, -temp, -grid) with the
// subcommand's defaults.
func (c *command) pointFlags(fps, temp float64, grid int) *jobFlags {
	fs := c.fs
	return &jobFlags{
		tech: fs.String("tech", "2d", "integration technology: 2d or 3d"),
		freq: fs.Float64("freq", 400, "operating frequency in MHz"),
		fps:  fs.Float64("fps", fps, "latency constraint in frames per second"),
		temp: fs.Float64("temp", temp, "thermal budget in Celsius"),
		grid: fs.Int("grid", grid, "thermal grid cells per side"),
	}
}

// jobFlags registers the shared config flags of the job subcommands:
// the point flags plus -seed; search adds the policy flags.
func (c *command) jobFlags(fps, temp float64, grid int, search bool) *jobFlags {
	fs := c.fs
	f := c.pointFlags(fps, temp, grid)
	f.seed = fs.Int64("seed", 1, "optimizer or scenario seed")
	if search {
		f.faults = fs.String("faults", os.Getenv("TESA_FAULTS"), "fault-injection spec, e.g. panic@thermal:rate=0.05 (default $TESA_FAULTS)")
		f.maxFail = fs.Int("max-failures", 0, "abort once more than this many points are quarantined (0 = unlimited)")
		f.failFast = fs.Bool("fail-fast", false, "abort on the first failed evaluation instead of quarantining it")
		f.stageTO = fs.Duration("stage-timeout", 0, "quarantine a point when one pipeline stage exceeds this duration (0 = off)")
	}
	return f
}

// spec builds the kind's spec from the shared config flags.
func (f *jobFlags) spec(kind string) *jobspec.Spec {
	s := &jobspec.Spec{
		Version:     jobspec.Version,
		Kind:        kind,
		Options:     &jobspec.Options{Tech: f.tech, FreqMHz: f.freq, Grid: f.grid},
		Constraints: &jobspec.Constraints{FPS: f.fps, TempC: f.temp},
		Seed:        f.seed,
	}
	if f.failFast != nil {
		s.Policies = &jobspec.Policies{
			MaxFailures: *f.maxFail,
			FailFast:    *f.failFast,
			// Round up so a sub-millisecond budget stays armed.
			StageTimeoutMS: int((*f.stageTO + time.Millisecond - 1) / time.Millisecond),
			Faults:         *f.faults,
		}
	}
	return s
}

// operational closes the config flags — every flag registered so far
// configures the job — and registers -job, the telemetry flags and,
// for the search subcommands, -progress and -memo-dir.
func (c *command) operational(search bool) {
	c.config = map[string]bool{}
	c.fs.VisitAll(func(f *flag.Flag) { c.config[f.Name] = true })
	c.jobPath = c.fs.String("job", "", "run this jobspec JSON file (tesa.jobspec/v1); conflicts with the config flags")
	c.obs = cli.ObservabilityFlags(c.fs)
	if search {
		c.memo = cli.MemoFlagsRegister(c.fs)
		c.progress = c.fs.Bool("progress", false, "stream live progress to stderr")
	}
}

// usageError marks a command-line or spec error (exit 2).
type usageError struct{ error }

// exitError ends a run whose output is printed with an exit code and
// manifest status.
type exitError struct {
	code   int
	status string
}

func (e *exitError) Error() string { return e.status }

var (
	errNoSolution  = &exitError{3, "no-solution"}
	errQuarantined = &exitError{cli.ExitQuarantined, "ok-quarantined"}
	// errFlagsReported is a usage error its flag set already printed.
	errFlagsReported = &exitError{2, "error"}
)

// resolve materializes the job: the -job spec, or the one fromFlags
// builds from the config flags. Every failure is a usage error.
func (c *command) resolve(fromFlags func() (*jobspec.Spec, error)) (*jobspec.Resolved, error) {
	path := *c.jobPath
	if path == "" {
		spec, err := fromFlags()
		if err != nil {
			return nil, usageError{err}
		}
		r, err := spec.Resolve("")
		if err != nil {
			return nil, usageError{err}
		}
		return r, nil
	}
	var clash []string
	c.fs.Visit(func(f *flag.Flag) {
		if c.config[f.Name] {
			clash = append(clash, "-"+f.Name)
		}
	})
	if len(clash) > 0 {
		return nil, usageError{fmt.Errorf("config flags %v conflict with -job (the spec is the configuration; edit it instead)", clash)}
	}
	spec, err := jobspec.Load(path)
	if err != nil {
		return nil, usageError{err}
	}
	if spec.Kind != c.kind {
		return nil, usageError{fmt.Errorf("-job: %s is a %q job; this command runs %q jobs", path, spec.Kind, c.kind)}
	}
	// Relative workload_file paths resolve against the spec's directory.
	r, err := spec.Resolve(filepath.Dir(path))
	if err != nil {
		return nil, usageError{err}
	}
	return r, nil
}

// setup opens the run's observability session.
func (c *command) setup() (err error) {
	c.sess, err = c.obs.Setup("tesa "+c.kind, c.args, c.sum)
	return err
}

// start opens the run's observability session and memo store and
// records the job in the manifest.
func (c *command) start(r *jobspec.Resolved) error {
	if err := c.setup(); err != nil {
		return err
	}
	if c.memo != nil {
		var err error
		if c.store, c.memoDone, err = c.memo.Store(); err != nil {
			return err
		}
	}
	m := c.sess.Manifest
	if r.Kind == jobspec.KindSim {
		m.Set("point", fmt.Sprintf("%dx%d@%d", r.SimPoint.ArrayDim, r.SimPoint.ArrayDim, r.SimPoint.ICSUM))
		m.Set("draws", r.SimDraws)
	} else {
		m.Set("space", r.Space.Fingerprint())
	}
	m.Set("seed", r.Seed)
	m.Set("workload", r.Workload.Name)
	if r.Faults != "" {
		m.Set("faults", r.Faults)
	}
	return nil
}

// runtime is the jobspec runtime of one execution: the run's store and
// telemetry and the progress stream.
func (c *command) runtime() jobspec.Runtime {
	rt := jobspec.Runtime{Store: c.store, Tel: c.sess.Tel}
	var progress tesa.ProgressFunc
	if c.memo != nil && *c.progress {
		progress = progressPrinter(c.stderr)
	}
	rt.Progress = c.sess.Progress(progress)
	return rt
}

// execute runs the job through jobspec.Execute; when the run aborts on
// -max-failures it prints the quarantine ledger first.
func (c *command) execute(ctx context.Context, r *jobspec.Resolved, rt jobspec.Runtime) (*jobspec.Outcome, error) {
	out, err := jobspec.Execute(ctx, r, rt)
	if errors.Is(err, tesa.ErrTooManyFailures) && out.Evaluator != nil {
		cli.FailureSummary(c.stderr, out.Evaluator.QuarantineLedger())
	}
	return out, err
}

// exit reports err, finalizes the session with the matching manifest
// status, and returns the exit code.
func (c *command) exit(err error) int {
	code, status := 0, "ok"
	var ex *exitError
	var usage usageError
	switch {
	case err == nil:
	case errors.As(err, &ex):
		code, status = ex.code, ex.status
	case errors.As(err, &usage):
		fmt.Fprintln(c.stderr, err)
		code, status = 2, "error"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(c.stderr, "interrupted: %v\n", err)
		code, status = 130, "interrupted"
	default:
		fmt.Fprintln(c.stderr, err)
		code, status = 1, "error"
	}
	if c.sess != nil {
		if c.obs.Metrics && c.store != nil {
			fmt.Fprintf(c.sum, "memo: %s\n", c.store.Stats())
		}
		c.sess.Finish(status)
		if c.memoDone != nil {
			if err := c.memoDone(); err != nil {
				fmt.Fprintln(c.stderr, err)
			}
		}
	}
	return code
}

// quarantined is the exit error of a completed run: errQuarantined when
// any design point was quarantined, nil otherwise.
func quarantined(n int) error {
	if n > 0 {
		return errQuarantined
	}
	return nil
}

// progressPrinter renders Progress updates as stderr status lines: every
// new incumbent, plus completion ticks at ~5% steps when the total is
// known.
func progressPrinter(w io.Writer) tesa.ProgressFunc {
	lastTick := -1
	return func(p tesa.Progress) {
		tick := -1
		pct := ""
		if p.Total > 0 {
			tick = 20 * p.Done / p.Total // 5% buckets
			pct = fmt.Sprintf(" (%.0f%%)", 100*float64(p.Done)/float64(p.Total))
		}
		if !p.Improved && tick == lastTick {
			return
		}
		lastTick = tick
		line := fmt.Sprintf("%s: %d", p.Phase, p.Done)
		if p.Total > 0 {
			line += fmt.Sprintf("/%d", p.Total)
		}
		line += pct
		if p.Incumbent != nil {
			line += fmt.Sprintf("  best %v obj %.4f", p.Incumbent.Point, p.Incumbent.Objective)
		}
		fmt.Fprintf(w, "%s  [%.1fs]\n", line, p.Elapsed.Seconds())
	}
}
