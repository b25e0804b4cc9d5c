// Package tesa is a from-scratch Go reproduction of TESA, the
// TEmperature-aware methodology that Sizes and places Accelerator
// chiplets on multi-chip modules (MCMs) for multi-DNN workloads
// (Shukla et al., DATE 2023).
//
// TESA tunes a chiplet's systolic-array dimension and the inter-chiplet
// spacing (ICS) — from which the SRAM capacity and the chiplet mesh
// follow — to find an MCM that satisfies user-defined latency, power,
// area, and temperature constraints while minimizing a weighted sum of
// normalized MCM fabrication cost and DRAM power (the paper's Eq. 6).
//
// The package is a facade over the substrate implementations:
//
//   - internal/dnn       — the six-DNN AR/VR workload (layer-level IR)
//   - internal/systolic  — SCALE-Sim-equivalent performance model
//   - internal/sram      — CACTI-7.0-equivalent 22 nm SRAM model
//   - internal/power     — Eqs. (1)-(5) and the leakage models
//   - internal/dram      — Micron-style DDR4 power model
//   - internal/area      — 2-D / 3-D chiplet area model
//   - internal/cost      — MCM fabrication-cost model
//   - internal/floorplan — mesh estimator and floorplanner
//   - internal/thermal   — HotSpot-6.0-equivalent steady-state solver
//   - internal/sched     — thermally-aware multi-DNN static scheduler
//   - internal/anneal    — multi-start simulated annealing
//   - internal/core      — the TESA pipeline, optimizer, baselines, and
//     the drivers that regenerate every table and figure of the paper
//
// # Quick start
//
//	w := tesa.ARVRWorkload()
//	opts := tesa.DefaultOptions()           // 2-D, 400 MHz, Eq.6 weights 1/1
//	cons := tesa.DefaultConstraints()       // 30 fps, 15 W, 75 C, 8x8 mm
//	ev, _ := tesa.NewEvaluator(w, opts, cons, tesa.Models{})
//	res, _ := ev.OptimizeContext(context.Background(), tesa.DefaultSpace(), 1, nil)
//	if res != nil && res.Found {
//	    fmt.Println(res.Best.Point, res.Best.PeakTempC)
//	}
//
// # Long-running searches
//
// The search layer is built around context-first entrypoints:
// Evaluator.OptimizeContext and Evaluator.ExhaustiveContext observe
// cancellation and deadlines between evaluations, ExhaustiveContext
// drains one queue of design points on a GOMAXPROCS-wide worker pool,
// and both stream incremental incumbents through a ProgressFunc.
// Failures use the exported sentinel errors (ErrInvalidSpace,
// ErrNoFeasibleStart) and support errors.Is.
//
// # Experiments and baselines
//
// ExperimentConfig drives the paper's tables and figures and the
// temperature-unaware baselines they compare against: SC1 (maximum
// parallelism), SC2 (sizing without temperature) and the W1/W2
// adoptions, as its RunSC1, RunSC2, RunW1 and RunW2 methods. Each takes
// a context and a constraint Corner. Every evaluator a config builds,
// for a table, a figure or a baseline, shares the config's memo store
// and its Telemetry hub, so repeated work is paid once per config and a
// trace counts all of it.
//
//	cfg := tesa.DefaultExperimentConfig()
//	sc2, _ := cfg.RunSC2(ctx, tesa.Corner{Tech: tesa.Tech2D, FreqMHz: 500, FPS: 15, BudgetC: 75})
//	if sc2.Found {
//	    fmt.Println(sc2.Actual.Point, sc2.Actual.PeakTempC) // what SC2's pick really reaches
//	}
package tesa

import (
	"context"
	"io"
	"net/http"

	"tesa/internal/core"
	"tesa/internal/des"
	"tesa/internal/dnn"
	"tesa/internal/faults"
	"tesa/internal/jobspec"
	"tesa/internal/memo"
	"tesa/internal/server"
	"tesa/internal/systolic"
	"tesa/internal/telemetry"
)

// Core design-space exploration types.
type (
	// DesignPoint is one candidate MCM configuration (array dimension and
	// inter-chiplet spacing; SRAM capacity and mesh are derived).
	DesignPoint = core.DesignPoint
	// Space is the discrete design space (Table II).
	Space = core.Space
	// Evaluation is the full characterization of one MCM (Fig. 2b
	// pipeline outputs plus feasibility).
	Evaluation = core.Evaluation
	// Evaluator runs the TESA pipeline for one workload and setting.
	Evaluator = core.Evaluator
	// Options configure the evaluation (technology, frequency, dataflow,
	// thermal grid, Eq. 6 weights).
	Options = core.Options
	// Constraints are the user-defined limits (fps, power, temperature,
	// interposer area).
	Constraints = core.Constraints
	// Models bundles the substrate parameter sets.
	Models = core.Models
	// Tech selects 2-D or 3-D chiplet integration.
	Tech = core.Tech
	// OptimizeResult is a TESA optimization outcome.
	OptimizeResult = core.OptimizeResult
	// OptimizeOptions tunes Evaluator.OptimizeContext (progress
	// streaming, failure policy, worker-pool width); nil takes the
	// defaults.
	OptimizeOptions = core.OptimizeOptions
	// ExhaustiveResult is a full-space sweep outcome.
	ExhaustiveResult = core.ExhaustiveResult
	// SweepOptions tunes Evaluator.ExhaustiveContext: progress
	// streaming and the failure policies.
	SweepOptions = core.SweepOptions
	// FrontMember is one full-fidelity point of an NSGA-II
	// multi-objective front (Evaluator.NSGA2FrontContext).
	FrontMember = core.FrontMember
	// FrontOptions tunes the NSGA-II front engine (population size,
	// generations, progress streaming).
	FrontOptions = core.FrontOptions
	// Progress is one incremental update from a long-running search.
	Progress = core.Progress
	// ProgressFunc receives Progress updates; see the core type for the
	// synchronization contract.
	ProgressFunc = core.ProgressFunc
	// EvalError is the structured failure of one design-point
	// evaluation: the failing stage, the point, and the cause. The
	// engines quarantine the point and continue; match the cause with
	// errors.Is against the evaluation-failure sentinels.
	EvalError = core.EvalError
	// QuarantinedPoint is one quarantine-ledger entry: a failed design
	// point with its stage and failure class.
	QuarantinedPoint = core.QuarantinedPoint
	// FaultPlan is a deterministic fault-injection plan for chaos runs;
	// see ParseFaults and Evaluator.InjectFaults.
	FaultPlan = faults.Plan
	// BaselineResult pairs a baseline's pick with its ground truth.
	BaselineResult = core.BaselineResult
	// ExperimentConfig parameterizes the paper's tables and figures
	// and the temperature-unaware baselines (its RunSC1, RunSC2, RunW1
	// and RunW2 methods).
	ExperimentConfig = core.ExperimentConfig
	// Corner is one constraint corner of the evaluation.
	Corner = core.Corner
	// Workload is a multi-DNN workload.
	Workload = dnn.Workload
	// Network is one DNN described layer by layer.
	Network = dnn.Network
	// Dataflow selects the systolic-array mapping (os/ws).
	Dataflow = systolic.Dataflow
)

// Integration technologies.
const (
	Tech2D = core.Tech2D
	Tech3D = core.Tech3D
)

// Dataflows.
const (
	OutputStationary = systolic.OutputStationary
	WeightStationary = systolic.WeightStationary
)

// NewEvaluator builds an evaluator for the workload under the given
// options and constraints; zero-valued models are filled with the
// calibrated 22 nm defaults.
func NewEvaluator(w Workload, opts Options, cons Constraints, models Models) (*Evaluator, error) {
	return core.NewEvaluator(w, opts, cons, models)
}

// DefaultOptions returns the paper's evaluation defaults (2-D, 400 MHz,
// output-stationary, 125 um-class grid, alpha = beta = 1).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultConstraints returns the paper's canonical corner: 30 fps, 15 W,
// 75 C, 8x8 mm interposer.
func DefaultConstraints() Constraints { return core.DefaultConstraints() }

// DefaultModels returns the calibrated 22 nm substrate parameters.
func DefaultModels() Models { return core.DefaultModels() }

// DefaultSpace returns the Table II design space (121 array sizes x 21
// ICS options).
func DefaultSpace() Space { return core.DefaultSpace() }

// ValidationSpace returns the small Sec. IV-A optimizer-validation space.
func ValidationSpace() Space { return core.ValidationSpace() }

// ARVRWorkload returns the paper's six-DNN AR/VR workload: handpose
// detection, image segmentation (U-Net), object detection (MobileNet),
// object recognition (ResNet-50), depth estimation (DNL), and speech
// recognition (Transformer). Each call returns its own copy, which the
// caller may modify.
func ARVRWorkload() Workload { return dnn.ARVRWorkload() }

// SRAMKBForArray derives the per-SRAM capacity for an array dimension via
// the paper's area-ratio rule.
func SRAMKBForArray(arrayDim int) int { return core.SRAMKBForArray(arrayDim) }

// DefaultExperimentConfig returns the configuration that regenerates the
// paper's tables and figures.
func DefaultExperimentConfig() ExperimentConfig { return core.DefaultExperimentConfig() }

// Sentinel errors of the search layer, matched with errors.Is. The
// context-first entrypoints (Evaluator.OptimizeContext,
// Evaluator.ExhaustiveContext) return them.
var (
	// ErrInvalidSpace marks an unsearchable design space or an
	// off-space design point.
	ErrInvalidSpace = core.ErrInvalidSpace
	// ErrNoFeasibleStart is OptimizeContext's "solution does not exist"
	// outcome: no feasible starting configuration was found.
	ErrNoFeasibleStart = core.ErrNoFeasibleStart
)

// Evaluation-failure taxonomy: the causes an *EvalError can wrap. Match
// with errors.Is; the engines quarantine points failing with any of
// these and continue, unless SweepOptions/OptimizeOptions say otherwise.
var (
	// ErrStagePanic marks a recovered panic in a pipeline stage.
	ErrStagePanic = core.ErrStagePanic
	// ErrNonFinite marks a NaN/Inf stage output caught at the boundary.
	ErrNonFinite = core.ErrNonFinite
	// ErrSolverDiverged marks a thermal grid solve that did not
	// converge.
	ErrSolverDiverged = core.ErrSolverDiverged
	// ErrStageTimeout marks a stage exceeding the per-stage wall-clock
	// budget (Evaluator.SetStageTimeout).
	ErrStageTimeout = core.ErrStageTimeout
	// ErrTooManyFailures aborts a run whose quarantine count exceeded
	// the MaxFailures policy.
	ErrTooManyFailures = core.ErrTooManyFailures
)

// ParseFaults compiles a fault-injection spec (the TESA_FAULTS / -faults
// syntax, e.g. "panic@thermal:dim=64-96,rate=0.1;nan@dram") into a plan
// for Evaluator.InjectFaults. An empty spec returns a nil plan, which
// disables injection.
func ParseFaults(spec string) (*FaultPlan, error) { return faults.Parse(spec) }

// ThermalMapASCII renders an evaluation's hottest-phase temperature
// field as an ASCII heat map (Fig. 6 analogue).
func ThermalMapASCII(ev *Evaluation) string { return core.ThermalMapASCII(ev) }

// ThermalMapCSV renders the same field as CSV for plotting.
func ThermalMapCSV(ev *Evaluation) string { return core.ThermalMapCSV(ev) }

// FloorplanASCII renders an evaluated MCM's floorplan as ASCII art.
func FloorplanASCII(ev *Evaluation) string { return core.FloorplanASCII(ev) }

// Dynamic multi-tenant workload simulation (internal/des): a seeded
// discrete-event scenario engine coupled to the transient thermal
// solver. Evaluate a point with Evaluator.EvaluateFull, then drive it
// with Evaluator.Simulate (one seeded run, optional JSONL event log) or
// Evaluator.SimulateDistribution (an N-draw scenario distribution
// scored for sim-aware ranking, its draws run on parallel workers over
// one transient operator; draw 0 is the base run at the scenario's own
// seed).
type (
	// Scenario is one dynamic workload: seeded tenant arrival processes,
	// a simulated horizon, the thermal coupling tick, and the DVFS
	// throttle policy.
	Scenario = des.Scenario
	// Tenant is one traffic source: a network, an arrival process, and a
	// tail-latency SLA.
	Tenant = des.Tenant
	// ArrivalSpec parameterizes a tenant's arrival process (poisson,
	// diurnal, or mmpp).
	ArrivalSpec = des.ArrivalSpec
	// Throttle is the temperature-triggered DVFS policy closing the
	// thermal loop.
	Throttle = des.Throttle
	// SimResult is one simulated run's outcome: traffic and SLA tallies,
	// throttle history, and the temperature envelope.
	SimResult = des.Result
	// TenantStats is one tenant's traffic and latency-percentile summary
	// inside a SimResult.
	TenantStats = des.TenantStats
	// SimScore aggregates a design's behavior over an N-draw scenario
	// distribution; see SimScore.CombinedObjective.
	SimScore = core.SimScore
)

// Arrival-process kinds of an ArrivalSpec.
const (
	ArrivalPoisson = des.ArrivalPoisson
	ArrivalDiurnal = des.ArrivalDiurnal
	ArrivalMMPP    = des.ArrivalMMPP
)

// Observability (internal/telemetry). Attach a hub to an evaluator with
// Evaluator.Instrument; a nil *Telemetry disables everything at ~zero
// cost, so library users can plumb one unconditionally:
//
//	tel := tesa.NewTelemetry(tesa.NewJSONLSink(traceFile)) // or NewTelemetry(nil)
//	ev.Instrument(tel)
//	res, _ := ev.OptimizeContext(ctx, tesa.DefaultSpace(), 1, nil)
//	fmt.Print(tel.Summary())
type (
	// Telemetry is the observability hub: metrics registry, optional
	// trace sink, Span/Hook API. The nil hub is the disabled state.
	Telemetry = telemetry.Telemetry
	// EventSink receives structured trace events.
	EventSink = telemetry.EventSink
	// JSONLSink writes one JSON object per trace event.
	JSONLSink = telemetry.JSONLSink
	// FileSink is a crash-safe JSONL sink over a file path (temp-file +
	// rename creation, fsync per flush) — what the CLIs use for run
	// manifests.
	FileSink = telemetry.FileSink
	// MetricsServer is the live exposition HTTP server: /metrics
	// (Prometheus text), /debug/vars (JSON snapshot), /progress, and
	// /debug/pprof. The nil server is the disabled state.
	MetricsServer = telemetry.Server
	// Manifest is a run's identity card: run id, command, argv, and
	// arbitrary run-defining facts, emitted as "run.manifest" JSONL
	// records at start and end of a run.
	Manifest = telemetry.Manifest
)

// NewTelemetry returns an enabled hub; sink may be nil for
// metrics-only collection.
func NewTelemetry(sink EventSink) *Telemetry { return telemetry.New(sink) }

// ServeMetrics starts a MetricsServer for tel's registry on addr
// (e.g. "localhost:9090"); close it with Server.Close.
func ServeMetrics(addr string, tel *Telemetry) (*MetricsServer, error) {
	return telemetry.Serve(addr, tel)
}

// NewManifest starts a run manifest for the named command; see
// telemetry.Manifest for the record schema.
func NewManifest(command string, argv []string) *Manifest {
	return telemetry.NewManifest(command, argv)
}

// ModelVersion names the revision of the analytical models baked into
// this build; memo cache segments and run manifests carry it so stale
// artifacts are detected across binary upgrades.
const ModelVersion = core.ModelVersion

// Memoization (internal/memo). A MemoStore caches pipeline
// sub-evaluations (systolic profiles, SRAM estimates, schedules,
// coverage maps, whole DSE evaluations) under content-addressed keys.
// Every evaluator runs through one: a private store by default. Attach
// one explicitly with Evaluator.UseMemo to share it across evaluators —
// e.g. an exhaustive sweep and the annealer validating against it — and
// warm it from disk with LoadMemoDir:
//
//	store := tesa.NewMemoStore()
//	closeDisk, _ := tesa.LoadMemoDir(store, ".tesa-memo")
//	defer closeDisk()
//	ev.UseMemo(store)
type (
	// MemoStore is a concurrency-safe content-addressed cache of
	// pipeline sub-evaluations, shared across evaluators and annealing
	// chains.
	MemoStore = memo.Store
	// MemoStats is a point-in-time snapshot of a store's hit/miss/load
	// counters, overall and per result kind.
	MemoStats = memo.Stats
)

// NewMemoStore returns an empty in-memory memo store.
func NewMemoStore() *MemoStore { return memo.NewStore() }

// LoadMemoDir warm-starts store from the JSONL cache segments under
// dir (creating it when absent) and arranges for new results to be
// persisted there. Segments written by a different model version are
// skipped. The returned closer flushes pending records; call it before
// exiting.
func LoadMemoDir(store *MemoStore, dir string) (func() error, error) {
	return core.LoadMemoDir(store, dir)
}

// NewJSONLSink wraps w in a buffered JSONL trace sink; call Flush (or
// Telemetry.Flush) before exiting.
func NewJSONLSink(w io.Writer) *JSONLSink { return telemetry.NewJSONLSink(w) }

// NewFileSink opens path as a crash-safe JSONL sink (see FileSink);
// call Close before exiting.
func NewFileSink(path string) (*FileSink, error) { return telemetry.NewFileSink(path) }

// MarshalWorkload serializes a workload to the JSON schema documented in
// internal/dnn (TESA's layer-wise workload description input).
func MarshalWorkload(w *Workload) ([]byte, error) { return dnn.MarshalWorkload(w) }

// UnmarshalWorkload parses and validates a workload from JSON.
func UnmarshalWorkload(data []byte) (Workload, error) { return dnn.UnmarshalWorkload(data) }

// Jobs (internal/jobspec, internal/server). A JobSpec is the versioned
// JSON description of one DSE request — optimize, sweep, or pareto —
// consumed identically by the CLIs' -job flag, by RunJob in-process, and
// by a tesa-server over HTTP. The spec is the single source of truth for
// a run's configuration, so the three paths produce byte-identical
// JobResults:
//
//	spec, _ := tesa.LoadJobSpec("job.json")
//	res, _ := tesa.RunJob(ctx, spec, ".", nil)        // in-process
//	cli := tesa.NewJobClient("http://localhost:8080", nil)
//	res, _ = cli.Run(ctx, raw, nil)                   // same bytes, via a server
type (
	// JobSpec is the versioned ("tesa.jobspec/v1") JSON job request.
	JobSpec = jobspec.Spec
	// JobResult is the canonical, NaN-safe result document of a job.
	JobResult = jobspec.Result
	// JobClient is an HTTP client for a tesa-server job API: submit,
	// poll, stream progress over SSE, cancel.
	JobClient = server.Client
)

// ParseJobSpec strictly decodes and validates a JobSpec from JSON:
// unknown fields, a wrong version, or an invalid kind are errors.
func ParseJobSpec(data []byte) (*JobSpec, error) { return jobspec.Parse(data) }

// LoadJobSpec reads and parses a JobSpec file.
func LoadJobSpec(path string) (*JobSpec, error) { return jobspec.Load(path) }

// RunJob resolves spec (workload_file paths are relative to baseDir)
// and executes it, observing ctx for cancellation and the spec's own
// deadline_sec. A non-nil store memoizes pipeline stages across calls —
// pass one process-wide store to get tesa-server's warm-state behaviour
// in-process; nil runs cold. Results are bit-identical either way.
func RunJob(ctx context.Context, spec *JobSpec, baseDir string, store *MemoStore) (*JobResult, error) {
	r, err := spec.Resolve(baseDir)
	if err != nil {
		return nil, err
	}
	return jobspec.Run(ctx, r, jobspec.Runtime{Store: store})
}

// NewJobClient returns a JobClient for a tesa-server base URL (e.g.
// "http://localhost:8080"). A nil httpClient uses http.DefaultClient.
func NewJobClient(base string, httpClient *http.Client) *JobClient {
	return server.NewClient(base, httpClient)
}
