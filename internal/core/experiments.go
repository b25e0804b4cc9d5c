package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"tesa/internal/dnn"
	"tesa/internal/memo"
	"tesa/internal/telemetry"
)

// ExperimentConfig parameterizes the paper's experiment drivers.
type ExperimentConfig struct {
	Workload dnn.Workload
	Models   Models
	Space    Space
	Seed     int64
	// Grid is the thermal resolution used during design-space search;
	// ReportGrid is the resolution winners are re-evaluated at for the
	// reported numbers (the paper's 125 um cells).
	Grid, ReportGrid int
	// Telemetry, when non-nil, instruments every evaluator the
	// experiment creates, so one hub aggregates stage timings and
	// counters across all tables and figures of a report run.
	Telemetry *telemetry.Telemetry

	mu      sync.Mutex
	corners map[Corner]*TableVRow
	// memoStore is shared by every evaluator the experiment creates —
	// the exhaustive sweep, the optimizer, per-corner runs and the
	// fine-grid re-evaluations — so repeated sub-computations are paid
	// once per experiment instead of once per evaluator.
	memoStore *memo.Store
}

// store lazily creates the experiment-wide shared memo store.
func (cfg *ExperimentConfig) store() *memo.Store {
	cfg.mu.Lock()
	defer cfg.mu.Unlock()
	if cfg.memoStore == nil {
		cfg.memoStore = memo.NewStore()
	}
	return cfg.memoStore
}

// newEvaluator builds an evaluator for one corner's options on the
// experiment's shared memo store.
func (cfg *ExperimentConfig) newEvaluator(opts Options, cons Constraints) (*Evaluator, error) {
	e, err := NewEvaluator(cfg.Workload, opts, cons, cfg.Models)
	if err != nil {
		return nil, err
	}
	e.UseMemo(cfg.store())
	e.Instrument(cfg.Telemetry)
	return e, nil
}

// DefaultExperimentConfig returns the configuration used to regenerate
// the paper's tables: the AR/VR workload, Table II design space, the
// calibrated models, a coarse search grid and a fine reporting grid.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		Workload:   dnn.ARVRWorkload(),
		Models:     DefaultModels(),
		Space:      DefaultSpace(),
		Seed:       1,
		Grid:       32,
		ReportGrid: 88,
	}
}

// Corner is one constraint corner of the paper's evaluation.
type Corner struct {
	Tech    Tech
	FreqMHz float64
	FPS     float64
	BudgetC float64
}

// String renders the corner the way the paper's tables label columns:
// tech, frequency, fps and thermal budget.
func (c Corner) String() string {
	return fmt.Sprintf("%s %3.0f MHz, %2.0f fps, %2.0f C", c.Tech, c.FreqMHz, c.FPS, c.BudgetC)
}

func (cfg *ExperimentConfig) optionsFor(c Corner) (Options, Constraints) {
	opts := DefaultOptions()
	opts.Tech = c.Tech
	opts.FreqHz = c.FreqMHz * 1e6
	opts.Grid = cfg.Grid
	cons := DefaultConstraints()
	cons.FPS = c.FPS
	cons.TempBudgetC = c.BudgetC
	return opts, cons
}

// reEvaluate re-runs a winner at the fine reporting grid; it returns
// ctx.Err() without evaluating when ctx is already done.
func (cfg *ExperimentConfig) reEvaluate(ctx context.Context, c Corner, p DesignPoint) (*Evaluation, error) {
	opts, cons := cfg.optionsFor(c)
	opts.Grid = cfg.ReportGrid
	e, err := cfg.newEvaluator(opts, cons)
	if err != nil {
		return nil, err
	}
	return e.EvaluateFullContext(ctx, p)
}

// TableVRow is one row of the paper's Table V: a TESA output at one
// constraint corner.
type TableVRow struct {
	Corner Corner
	// Found is false when no feasible MCM exists at this corner (e.g.
	// 3-D at 500 MHz under 75 C, the paper's Table III headline).
	Found bool
	Eval  *Evaluation // fine-grid evaluation of the winner
	// Explored and SpaceSize quantify how much of the space the
	// optimizer visited.
	Explored, SpaceSize int
	Elapsed             time.Duration
}

// TableVCorners lists the 16 corners of the paper's Table V study (it
// prints the feasible subset; infeasible corners are the "no solution"
// results discussed in the text).
func TableVCorners() []Corner {
	var cs []Corner
	for _, tech := range []Tech{Tech2D, Tech3D} {
		for _, f := range []float64{400, 500} {
			for _, fps := range []float64{15, 30} {
				for _, b := range []float64{75, 85} {
					cs = append(cs, Corner{tech, f, fps, b})
				}
			}
		}
	}
	return cs
}

// RunCornerContext optimizes one constraint corner and re-evaluates the
// winner at the reporting grid. Results are cached per corner, so
// experiment drivers that share corners (Table V, the headline study)
// pay once. It returns ctx.Err() when ctx is already cancelled, cached
// or not, and the optimization observes ctx between evaluations. A
// corner that has no feasible MCM is a valid result (Found=false), not
// an error.
func (cfg *ExperimentConfig) RunCornerContext(ctx context.Context, c Corner) (*TableVRow, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.mu.Lock()
	if row, ok := cfg.corners[c]; ok {
		cfg.mu.Unlock()
		return row, nil
	}
	cfg.mu.Unlock()

	start := time.Now()
	opts, cons := cfg.optionsFor(c)
	e, err := cfg.newEvaluator(opts, cons)
	if err != nil {
		return nil, err
	}
	opt, err := e.OptimizeContext(ctx, cfg.Space, cfg.Seed, nil)
	if err != nil && !errors.Is(err, ErrNoFeasibleStart) {
		return nil, err
	}
	row := &TableVRow{
		Corner:    c,
		Found:     opt.Found,
		Explored:  opt.Explored,
		SpaceSize: cfg.Space.Size(),
		Elapsed:   time.Since(start),
	}
	if opt.Found {
		row.Eval, err = cfg.reEvaluate(ctx, c, opt.Best.Point)
		if err != nil {
			return nil, err
		}
	}
	cfg.mu.Lock()
	if cfg.corners == nil {
		cfg.corners = make(map[Corner]*TableVRow)
	}
	cfg.corners[c] = row
	cfg.mu.Unlock()
	return row, nil
}

// TableV regenerates the paper's Table V: TESA outputs across every
// constraint corner for both technologies. It stops with ctx.Err()
// when ctx is cancelled.
func (cfg *ExperimentConfig) TableV(ctx context.Context) ([]*TableVRow, error) {
	var rows []*TableVRow
	for _, c := range TableVCorners() {
		row, err := cfg.RunCornerContext(ctx, c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTableV renders Table V rows in the paper's layout.
func FormatTableV(rows []*TableVRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s | %-34s | %-9s | %-9s | %-8s | %-8s | %-8s\n",
		"Constraints", "Architecture", "Grid,ICS", "Peak Temp", "Power", "MCM cost", "DRAM pwr")
	b.WriteString(strings.Repeat("-", 120) + "\n")
	for _, r := range rows {
		if !r.Found {
			fmt.Fprintf(&b, "%-26s | %s\n", r.Corner, "SOLUTION DOES NOT EXIST")
			continue
		}
		e := r.Eval
		fmt.Fprintf(&b, "%-26s | %-34s | %v,%4dum | %6.2f C | %5.2f W | $%6.2f | %5.2f W\n",
			r.Corner, e.Point, e.Mesh, e.Point.ICSUM, e.PeakTempC, e.TotalPowerW, e.MCMCost.Total, e.DRAMPowerW)
	}
	return b.String()
}

// TableIVRow is one row of Table IV: an SC2 (temperature-unaware sizing)
// pick and its ground-truth thermal behaviour.
type TableIVRow struct {
	Corner Corner
	Result *BaselineResult
}

// TableIV regenerates the paper's Table IV: SC2's 2-D and 3-D MCMs for
// each frequency/latency corner, evaluated against the strict 75 C
// budget with the full thermal and leakage models. Its SC2 searches
// observe ctx, and it stops with ctx.Err() when ctx is cancelled.
func (cfg *ExperimentConfig) TableIV(ctx context.Context) ([]*TableIVRow, error) {
	var rows []*TableIVRow
	for _, tech := range []Tech{Tech2D, Tech3D} {
		for _, f := range []float64{400, 500} {
			for _, fps := range []float64{15, 30} {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				c := Corner{tech, f, fps, 75}
				res, err := cfg.RunSC2(ctx, c)
				if err != nil {
					return nil, err
				}
				if res.Found {
					res.Actual, err = cfg.reEvaluate(ctx, c, res.Chosen.Point)
					if err != nil {
						return nil, err
					}
				}
				rows = append(rows, &TableIVRow{Corner: c, Result: res})
			}
		}
	}
	return rows, nil
}

// FormatTableIV renders Table IV rows.
func FormatTableIV(rows []*TableIVRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s | %-34s | %-9s | %s\n", "Corner", "SC2 chose", "Grid", "Actual peak junction temp")
	b.WriteString(strings.Repeat("-", 110) + "\n")
	for _, r := range rows {
		if !r.Result.Found {
			fmt.Fprintf(&b, "%-26s | no feasible configuration under SC2's own models\n", r.Corner)
			continue
		}
		a := r.Result.Actual
		temp := fmt.Sprintf("%.2f C", a.PeakTempC)
		if a.Runaway {
			temp = "THERMAL RUNAWAY"
		}
		fmt.Fprintf(&b, "%-26s | %-34s | %-9v | %s\n", r.Corner, a.Point, a.Mesh, temp)
	}
	return b.String()
}

// TableIIIResult aggregates the W1/W2 adoption study at 500 MHz on 3-D
// MCMs (the paper's Table III) plus TESA's own outcome at the same
// corner.
type TableIIIResult struct {
	W1Original, W1Constrained *BaselineResult
	W2Original, W2Constrained *BaselineResult
	// TESAFound reports whether TESA finds a feasible 3-D MCM at 500 MHz
	// under the 75 C budget (the paper: "Solution does not exist at
	// 75 C").
	TESAFound bool
	TESA      *Evaluation
}

// TableIII regenerates the paper's Table III comparison at 500 MHz, 3-D,
// 30 fps, 75 C. Its W1/W2 searches observe ctx, and it stops with
// ctx.Err() when ctx is cancelled.
func (cfg *ExperimentConfig) TableIII(ctx context.Context) (*TableIIIResult, error) {
	c := Corner{Tech3D, 500, 30, 75}
	res := &TableIIIResult{}
	for _, run := range []struct {
		out        **BaselineResult
		w2, constr bool
	}{
		{&res.W1Original, false, false},
		{&res.W1Constrained, false, true},
		{&res.W2Original, true, false},
		{&res.W2Constrained, true, true},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		baseline := cfg.RunW1
		if run.w2 {
			baseline = cfg.RunW2
		}
		var err error
		if *run.out, err = baseline(ctx, c, run.constr); err != nil {
			return nil, err
		}
	}
	row, err := cfg.RunCornerContext(ctx, c)
	if err != nil {
		return nil, err
	}
	res.TESAFound = row.Found
	if row.Found {
		res.TESA = row.Eval
	}
	return res, nil
}

// FormatTableIII renders the Table III comparison.
func (cfg *ExperimentConfig) FormatTableIII(r *TableIIIResult) string {
	_, cons := cfg.optionsFor(Corner{Tech3D, 500, 30, 75})
	var b strings.Builder
	b.WriteString("W1 (min-T, no leakage) and W2 (min T+cost+latency, linear leakage) at 500 MHz, 3-D, 30 fps:\n")
	for _, br := range []*BaselineResult{r.W1Original, r.W1Constrained, r.W2Original, r.W2Constrained} {
		b.WriteString("  " + br.Describe(cons) + "\n")
	}
	if r.TESAFound {
		b.WriteString(fmt.Sprintf("  TESA: %v, %v grid, peak %.1f C\n", r.TESA.Point, r.TESA.Mesh, r.TESA.PeakTempC))
	} else {
		b.WriteString("  TESA: solution does not exist at 75 C — remedial action needed (e.g. reduce frequency)\n")
	}
	return b.String()
}

// Fig5Result is the SC1 baseline study (max parallelism, temperature
// unaware) for one technology at 500 MHz.
type Fig5Result struct {
	Tech   Tech
	Result *BaselineResult
}

// Fig5 regenerates the paper's Fig. 5: SC1 MCMs for 2-D and 3-D at
// 500 MHz, 30 fps, and what they actually do thermally against 75 C.
// It stops with ctx.Err() when ctx is cancelled, between technologies
// or between SC1's evaluations.
func (cfg *ExperimentConfig) Fig5(ctx context.Context) ([]*Fig5Result, error) {
	var out []*Fig5Result
	for _, tech := range []Tech{Tech2D, Tech3D} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := Corner{tech, 500, 30, 75}
		res, err := cfg.RunSC1(ctx, c)
		if err != nil {
			return nil, err
		}
		if res.Found {
			res.Actual, err = cfg.reEvaluate(ctx, c, res.Chosen.Point)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, &Fig5Result{Tech: tech, Result: res})
	}
	return out, nil
}

// FormatFig5 renders the Fig. 5 summary.
func FormatFig5(rs []*Fig5Result, cons Constraints) string {
	var b strings.Builder
	b.WriteString("SC1: temperature-unaware maximum parallelism (one chiplet per DNN, max ICS), 500 MHz:\n")
	for _, r := range rs {
		if !r.Result.Found {
			fmt.Fprintf(&b, "  %s: no six-chiplet configuration meets latency+power\n", r.Tech)
			continue
		}
		a := r.Result.Actual
		fmt.Fprintf(&b, "  %s: %v, %v grid -> peak %.1f C (budget %.0f C), power %.1f W (budget %.0f W)",
			r.Tech, a.Point, a.Mesh, a.PeakTempC, cons.TempBudgetC, a.TotalPowerW, cons.PowerBudgetW)
		if a.Runaway {
			b.WriteString(" [THERMAL RUNAWAY]")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ThermalMapASCII renders a full evaluation's hottest-phase die-layer
// temperature field as an ASCII heat map (Fig. 6 analogue). Returns ""
// when the evaluation carries no thermal field.
func ThermalMapASCII(ev *Evaluation) string {
	if ev == nil || ev.Hottest == nil || ev.HottestStack == nil {
		return ""
	}
	layer := "die"
	if ev.HottestStack.Layers[len(ev.HottestStack.Layers)-1].Name != "lid" {
		return ""
	}
	temps := ev.Hottest.LayerTemps(ev.HottestStack, layer)
	if temps == nil {
		temps = ev.Hottest.LayerTemps(ev.HottestStack, "array")
	}
	if temps == nil {
		return ""
	}
	g := ev.HottestStack.Grid
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, t := range temps {
		lo = math.Min(lo, t)
		hi = math.Max(hi, t)
	}
	shades := []byte(" .:-=+*#%@")
	var b strings.Builder
	fmt.Fprintf(&b, "thermal map %v: %.1f C (' ') .. %.1f C ('@'), peak %.2f C\n", ev.Point, lo, hi, ev.PeakTempC)
	step := 1
	if g > 64 {
		step = g / 64
	}
	for j := g - 1; j >= 0; j -= 2 * step {
		for i := 0; i < g; i += step {
			t := temps[j*g+i]
			idx := 0
			if hi > lo {
				idx = int((t - lo) / (hi - lo) * float64(len(shades)-1))
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ThermalMapCSV renders the same field as CSV for plotting.
func ThermalMapCSV(ev *Evaluation) string {
	if ev == nil || ev.Hottest == nil || ev.HottestStack == nil {
		return ""
	}
	temps := ev.Hottest.LayerTemps(ev.HottestStack, "die")
	if temps == nil {
		temps = ev.Hottest.LayerTemps(ev.HottestStack, "array")
	}
	if temps == nil {
		return ""
	}
	g := ev.HottestStack.Grid
	var b strings.Builder
	for j := 0; j < g; j++ {
		for i := 0; i < g; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.3f", temps[j*g+i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ValidationResult is the optimizer-correctness study of Sec. IV-A.
type ValidationResult struct {
	Corner Corner
	// ExhaustiveBest is the global optimum; OptimizerBest is the MSA
	// result on the same space.
	ExhaustiveBest, OptimizerBest *Evaluation
	ExhaustiveFound, OptFound     bool
	// Agreement is true when the optimizer matched the global optimum's
	// objective value.
	Agreement bool
	// ExploredFraction is the share of the space the annealers touched
	// (the paper reports <15%).
	ExploredFraction float64
	// CacheHitRate is the share of the optimizer evaluator's calls that
	// did not run the pipeline — revisits and points the sweep already
	// evaluated, served by the shared store.
	CacheHitRate float64
	// MemoHitRate is the shared memoization store's hit rate over the
	// lookups of this validation's two evaluators — how much
	// cross-evaluator traffic the memo layer absorbed. It is a delta of
	// the experiment's store counters, so it excludes earlier tables and
	// corners but would include lookups of tables or figures run
	// concurrently on the same ExperimentConfig.
	MemoHitRate   float64
	FeasibleCount int
	SpaceSize     int
}

// ValidateOptimizerContext reproduces the paper's Sec. IV-A study:
// exhaustively evaluate the configured design space, then check the MSA
// optimizer finds the same global optimum while exploring a small
// fraction of the space. The paper could only afford a ~5k-point validation sub-space
// (SCALE-Sim points take minutes to hours); our substrates let the full
// Table II space be swept, which makes the "<15% explored" claim testable
// directly. Both the exhaustive sweep and the annealer run observe ctx.
func (cfg *ExperimentConfig) ValidateOptimizerContext(ctx context.Context, c Corner) (*ValidationResult, error) {
	space := cfg.Space
	opts, cons := cfg.optionsFor(c)
	before := cfg.store().Stats()

	ex, err := cfg.newEvaluator(opts, cons)
	if err != nil {
		return nil, err
	}
	exRes, err := ex.ExhaustiveContext(ctx, space, nil)
	if err != nil {
		return nil, err
	}

	// The optimizer evaluator shares the sweep's store: every point the
	// sweep touched is served without recomputation, which is exactly
	// the cross-evaluator sharing the memo layer exists for.
	op, err := cfg.newEvaluator(opts, cons)
	if err != nil {
		return nil, err
	}
	opRes, err := op.OptimizeContext(ctx, space, cfg.Seed, nil)
	if err != nil && !errors.Is(err, ErrNoFeasibleStart) {
		return nil, err
	}

	after := cfg.store().Stats()
	lookups := memo.KindStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	res := &ValidationResult{
		Corner:           c,
		ExhaustiveFound:  exRes.Best != nil,
		OptFound:         opRes.Found,
		FeasibleCount:    exRes.Feasible,
		SpaceSize:        exRes.Total,
		ExploredFraction: float64(opRes.Explored) / float64(exRes.Total),
		CacheHitRate:     op.CacheHitRate(),
		MemoHitRate:      lookups.HitRate(),
	}

	res.ExhaustiveBest = exRes.Best
	if opRes.Found {
		res.OptimizerBest = opRes.Best
	}
	switch {
	case !res.ExhaustiveFound && !res.OptFound:
		res.Agreement = true // both agree nothing is feasible
	case res.ExhaustiveFound && res.OptFound:
		res.Agreement = opRes.Best.Objective <= exRes.Best.Objective*(1+1e-9)
	default:
		res.Agreement = false
	}
	return res, nil
}
