// Command tesabench is TESA's benchmark. It runs one named workload
// through the public job entry points (jobspec.Parse, Spec.Resolve and
// jobspec.Run, or server.New and server.Client on a loopback listener),
// checks every result, and prints the workload's metrics by name with
// their units. README.md describes the workloads, the metrics, the
// layers they belong to and the baselines.
//
//	bash tesabench/run.sh --workload optimize-grid32 --seed 1 --seconds 30 --trace 0
//
// A run first times setUpReps set-ups, then repeats rounds, each on
// freshly set-up state, while the next round would still end within
// --seconds. Every round runs the same seeded job list, so each metric
// is a median over rounds that did identical work. With --trace 1 the
// run alternates untraced and traced rounds and reports per-layer
// metrics of the first traced round.
//
// The last line of standard output is the result: {"correct",
// "attempted", "failed", "metrics"}. The line before it is the full
// report, with the run manifest and every round.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"tesa/internal/jobspec"
	"tesa/internal/telemetry"
)

// setUpReps is how many set-ups a run times, torn down unused, before
// its first round, so setup_s is a median over enough samples to hold
// still even when one set-up takes a few milliseconds.
const setUpReps = 20

// runBudget bounds a whole run; the benchmark must exit well within 180 s.
const runBudget = 150 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundStats is the report entry of one round.
type roundStats struct {
	Traced bool     `json:"traced"`
	SetupS float64  `json:"setup_s"`
	WallS  float64  `json:"wall_s"`
	CPUS   float64  `json:"cpu_s"`
	Jobs   int      `json:"jobs"`
	Failed int      `json:"failed"`
	Errors []string `json:"errors,omitempty"`
}

// report is the line printed before the result.
type report struct {
	Manifest     map[string]any             `json:"manifest"`
	Rounds       []roundStats               `json:"rounds"`
	JobSamples   int                        `json:"job_samples"`
	SetupSamples int                        `json:"setup_samples"`
	Telemetry    *telemetry.MetricsSnapshot `json:"telemetry,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tesabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: optimize-grid32, serve-closed or sim-throttle")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the job list is generated from it")
	seconds := fs.Int("seconds", 30, "start no round that would end after this many seconds, once the workload's minimum rounds are done")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced round, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tesabench:", err)
		return 2
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	man := telemetry.NewManifest("tesabench", args)
	man.Set("workload", w.name)
	man.Set("seed", *seed)
	man.Set("traced", *trace == 1)
	man.Set("run_seconds", *seconds)
	man.Set("nproc", nproc)
	man.Set("gomaxprocs", runtime.GOMAXPROCS(0))
	man.Set("go_version", runtime.Version())
	man.Set("cpu_model", cpuModel())
	man.Set("git_rev", gitRev())

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	res, rep, err := measure(ctx, stderr, w, *seed, time.Duration(*seconds)*time.Second, nproc, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "tesabench:", err)
		return 1
	}
	status := "ok"
	if !res.Correct {
		status = "incorrect"
	}
	rep.Manifest = man.Finalize(nil, status)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		fmt.Fprintln(stderr, "tesabench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "tesabench:", err)
		return 1
	}
	return 0
}

// measure runs the workload: the set-up repetitions, then rounds until
// the time is up, and turns them into the result and the report. It
// logs one line per round to log.
func measure(ctx context.Context, log io.Writer, w *workload, seed int64, seconds time.Duration, nproc int, traced bool) (*result, *report, error) {
	raws, err := w.specs(seed)
	if err != nil {
		return nil, nil, err
	}

	var setups []float64
	for i := 0; i < setUpReps; i++ {
		t0 := time.Now()
		e, err := setUp(w, raws, nproc, nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := e.close(); err != nil {
			return nil, nil, err
		}
	}

	var (
		rounds   []roundStats
		lats     []float64
		failed   int
		attempts int
		first    *roundOutcome
	)
	start := time.Now()
	for i := 0; ; i++ {
		var tel *telemetry.Telemetry
		if traced && i%2 == 1 {
			tel = telemetry.New(nil)
		}
		out, err := runRound(ctx, w, seed, raws, nproc, tel)
		if err != nil {
			return nil, nil, err
		}
		if tel != nil && first == nil {
			first = out
		}
		rs := out.stats
		setups = append(setups, rs.SetupS)
		for _, rec := range out.recs {
			lats = append(lats, rec.latency.Seconds()*1e3)
		}
		attempts += rs.Jobs
		failed += rs.Failed
		rounds = append(rounds, rs)
		fmt.Fprintf(log, "tesabench: %s round %d traced=%v setup %.4fs wall %.3fs cpu %.3fs failed %d/%d\n",
			w.name, i, rs.Traced, rs.SetupS, rs.WallS, rs.CPUS, rs.Failed, rs.Jobs)
		if ctx.Err() != nil {
			return nil, nil, fmt.Errorf("run exceeded its %s budget", runBudget)
		}
		// Stop before a round that would end past the time, once an
		// untraced run has the workload's minimum of rounds, or a traced
		// run has as many traced rounds as untraced ones.
		next := time.Since(start) + time.Duration(median(wallsOf(rounds, false))*float64(time.Second))
		enough := len(rounds) >= max(w.minRounds, 1)
		if traced {
			enough = i%2 == 1
		}
		if next > seconds && enough {
			break
		}
	}

	res := &result{Correct: failed == 0, Attempted: attempts, Failed: failed}
	rep := &report{Rounds: rounds, JobSamples: len(lats), SetupSamples: len(setups)}
	if traced {
		res.Metrics = first.layers
		res.Metrics["trace.overhead_frac"] = metric{median(wallsOf(rounds, true))/median(wallsOf(rounds, false)) - 1, "ratio"}
		rep.Telemetry = &first.snap
		return res, rep, nil
	}
	res.Metrics = map[string]metric{
		"wall_s":      {median(wallsOf(rounds, false)), "s"},
		"cpu_s":       {median(cpusOf(rounds)), "s"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"ok_frac":     {float64(attempts-failed) / float64(attempts), "ratio"},
		"job_p50_ms":  {median(lats), "ms"},
		"job_p95_ms":  {jobP95(lats), "ms"},
	}
	return res, rep, nil
}

// roundOutcome is one set-up and the round run on it.
type roundOutcome struct {
	stats roundStats
	recs  []jobRecord
	// layers and snap are the per-layer metrics and the telemetry of a
	// traced round.
	layers map[string]metric
	snap   telemetry.MetricsSnapshot
}

// runRound sets up fresh state, runs the job list once on it, checks
// every result and tears the state down. A non-nil tel traces the round.
func runRound(ctx context.Context, w *workload, seed int64, raws [][]byte, nproc int, tel *telemetry.Telemetry) (*roundOutcome, error) {
	t0 := time.Now()
	e, err := setUp(w, raws, nproc, tel)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(t0).Seconds()

	check := func(j *job, res *jobspec.Result) error {
		if err := checkResult(j.resolved, res); err != nil || w.golden == nil {
			return err
		}
		return w.golden(seed, res)
	}
	cpu0 := cpuSeconds()
	t0 = time.Now()
	recs := e.round(ctx, check)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0

	out := &roundOutcome{
		stats: roundStats{Traced: tel != nil, SetupS: setupS, WallS: wall, CPUS: cpu, Jobs: len(recs)},
		recs:  recs,
	}
	for _, rec := range recs {
		if rec.err != nil {
			out.stats.Failed++
			if len(out.stats.Errors) < 5 {
				out.stats.Errors = append(out.stats.Errors, rec.err.Error())
			}
		}
	}
	if tel != nil {
		out.snap = tel.Registry().Export()
		out.layers = layerMetrics(out.snap, recs, e.store())
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	return out, nil
}

func wallsOf(rounds []roundStats, traced bool) []float64 {
	var out []float64
	for _, r := range rounds {
		if r.Traced == traced {
			out = append(out, r.WallS)
		}
	}
	return out
}

func cpusOf(rounds []roundStats) []float64 {
	var out []float64
	for _, r := range rounds {
		if !r.Traced {
			out = append(out, r.CPUS)
		}
	}
	return out
}

// median is the middle value of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTailSamples is the fewest job samples whose p95 still has ten
// samples beyond it.
const minTailSamples = 200

// jobP95 is the p95 job latency. A run with fewer samples has no
// resolvable tail, and reports the median job latency instead of the
// maximum of a handful of rounds, which host noise alone moves by 20%.
func jobP95(lats []float64) float64 {
	if len(lats) < minTailSamples {
		return median(lats)
	}
	return quantile(lats, 0.95)
}

// quantile is the nearest-rank q-quantile of xs: at n = 200, the p95 is
// the 190th value, with ten samples beyond it. 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	return s[max(k, 0)]
}
