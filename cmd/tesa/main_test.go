package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"tesa/internal/golden"
	"tesa/internal/jobspec"
)

// specDir holds the reference jobspecs.
const specDir = "../../internal/jobspec/testdata"

// runTesa runs one command line in-process and returns its exit code,
// stdout and stderr.
func runTesa(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	return runTesaContext(context.Background(), args...)
}

// runTesaContext is runTesa under ctx.
func runTesaContext(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// elapsed matches the "%.1fs" wall-clock fields of the text reports.
var elapsed = regexp.MustCompile(`\b\d+\.\ds\b`)

// TestGoldenStdout pins each subcommand's stdout and exit code to the
// output of the standalone binaries it replaced, recorded in
// testdata/<name>.golden; only elapsed-seconds fields are masked, and
// the temperatures and total power of JSON output match within 1e-6
// (see golden.Compare).
func TestGoldenStdout(t *testing.T) {
	t.Setenv("TESA_FAULTS", "")
	cases := []struct {
		name string
		exit int
		args []string
	}{
		{"optimize", 0, []string{"-grid", "8"}},
		{"nosolution", 3, []string{"-grid", "8", "-temp", "40"}},
		{"sweep", 0, []string{"sweep", "-grid", "8"}},
		{"pareto", 0, []string{"pareto", "-grid", "8", "-points", "3"}},
		{"front", 0, []string{"pareto", "-grid", "8", "-front", "exact"}},
		{"sim", 0, []string{"sim", "-grid", "16", "-fps", "15", "-duration", "1", "-dt", "0.1", "-seed", "42", "-draws", "2",
			"-tenant", "ar:MobileNet:diurnal:10:0.1", "-tenant", "vr:ResNet-50:poisson:5:0.1"}},
		{"simjob", 0, []string{"sim", "-job", filepath.Join(specDir, "sim.json"), "-json"}},
		{"cycles", 0, []string{"cycles"}},
		{"thermal", 0, []string{"thermal", "-grid", "16"}},
		{"report", 0, []string{"report", "-fig", "1", "-grid", "16", "-report-grid", "16"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runTesa(t, c.args...)
			if code != c.exit {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, c.exit, stderr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, wantS := elapsed.ReplaceAllString(stdout, "N.Ns"), elapsed.ReplaceAllString(string(want), "N.Ns")
			if err := golden.Compare([]byte(got), []byte(wantS)); err != nil {
				t.Errorf("stdout drifted from testdata/%s.golden: %v\n got:\n%s\nwant:\n%s", c.name, err, got, wantS)
			}
		})
	}
}

// TestUsageErrorsExit2 covers the command-line and spec errors of every
// subcommand: each exits 2 before running or printing anything.
func TestUsageErrorsExit2(t *testing.T) {
	spec := func(kind string) string { return filepath.Join(specDir, kind+".json") }
	cases := map[string][]string{
		"optimize clash":         {"-job", spec("optimize"), "-grid", "8"},
		"sweep clash":            {"sweep", "-job", spec("sweep"), "-temp", "80"},
		"pareto clash":           {"pareto", "-job", spec("pareto"), "-points", "3"},
		"sim clash":              {"sim", "-job", spec("sim"), "-dim", "100"},
		"sim bad tenant":         {"sim", "-tenant", "ar:MobileNet"},
		"sim no tenant":          {"sim"},
		"wrong kind":             {"sweep", "-job", spec("sim")},
		"unknown flag":           {"pareto", "-nope"},
		"removed flag":           {"-thermal-fast"},
		"removed flag optimize":  {"-starts-parallel"},
		"removed flag sweep":     {"sweep", "-starts-parallel"},
		"removed flag pareto":    {"pareto", "-starts-parallel"},
		"removed ranking":        {"-surrogate"},
		"removed ranking sweep":  {"sweep", "-surrogate"},
		"removed ranking pareto": {"pareto", "-surrogate"},
		"removed ranking size":   {"-surrogate-k", "4"},
		"bad front":              {"pareto", "-front", "hull"},
		"removed nsga2 front":    {"pareto", "-front", "nsga2"},
		"removed pop":            {"pareto", "-pop", "8"},
		"removed gens":           {"pareto", "-gens", "2"},
		"bad faults":             {"-faults", "melt@thermal"},
		"shard faults":           {"sweep", "-faults", "lie@shard"},
		"removed diverge option": {"-faults", "diverge@thermal:attempts=2"},
		"removed coordinate":     {"sweep", "-coordinate", "127.0.0.1:0", "-job", spec("sweep")},
		"removed worker":         {"sweep", "-worker", "http://127.0.0.1:1"},
		"removed worker name":    {"sweep", "-worker-name", "w1"},
		"removed lease ttl":      {"sweep", "-lease-ttl", "10s"},
		"removed lease shards":   {"sweep", "-lease-shards", "4"},
		"removed verify frac":    {"sweep", "-verify-frac", "0.1"},
		"removed checkpoint":     {"sweep", "-checkpoint", "x"},
		"removed resume":         {"sweep", "-resume", "x"},
		"removed shard":          {"sweep", "-shard", "4"},
		"removed pprof":          {"-pprof", "x"},
		"thermal bad tech":       {"thermal", "-tech", "4d"},
		"thermal zero fps":       {"thermal", "-fps", "0"},
		"thermal zero dim":       {"thermal", "-dim", "0"},
		"thermal negative ics":   {"thermal", "-ics", "-1"},
		"thermal seed":           {"thermal", "-seed", "2"},
		"cycles zero dim":        {"cycles", "-dim", "0"},
		"cycles zero freq":       {"cycles", "-freq", "0"},
		"cycles negative chans":  {"cycles", "-channels", "-1"},
		"report zero grid":       {"report", "-fig", "1", "-grid", "0"},
		"report zero rep grid":   {"report", "-fig", "1", "-report-grid", "0"},
		"report bad table":       {"report", "-table", "7"},
		"report bad fig":         {"report", "-fig", "2"},
		"report nothing":         {"report"},
		"trace one diff file":    {"trace", "diff", "a.jsonl"},
		"trace bogus mode":       {"trace", "bogus"},
	}
	for name, args := range cases {
		if code, stdout, stderr := runTesa(t, args...); code != 2 || stdout != "" {
			t.Errorf("%s: exit %d, want 2 with empty stdout; stdout:\n%s\nstderr:\n%s", name, code, stdout, stderr)
		}
	}
	if code, _, _ := runTesa(t, "sim", "-h"); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
}

// TestReportInterrupt: a cancelled context (a SIGINT in main) stops
// tesa report inside a section, not at the next section boundary.
// Table V alone runs for seconds. Table III spends them in the W1/W2
// baseline searches: at grid 64 the first W1 search alone outlasts the
// bound, so a baseline that ignores ctx fails it.
func TestReportInterrupt(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "5", "-grid", "32", "-report-grid", "32"},
		{"-table", "3", "-grid", "64", "-report-grid", "64"},
	} {
		t.Run("table"+args[1], func(t *testing.T) {
			const after = 300 * time.Millisecond
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(after, cancel)
			start := time.Now()
			code, _, stderr := runTesaContext(ctx, append([]string{"report"}, args...)...)
			if code != 130 {
				t.Fatalf("exit %d, want 130; stderr:\n%s", code, stderr)
			}
			if d := time.Since(start) - after; d > 2*time.Second {
				t.Errorf("report exited %v after the cancel, want within 2s", d)
			}
		})
	}
}

// TestChaosSweep runs a sweep under TESA_FAULTS: it completes with
// quarantined points (exit 4) and lists them in the stdout summary.
func TestChaosSweep(t *testing.T) {
	t.Setenv("TESA_FAULTS", "panic@sched:rate=0.1,seed=7;nan@cost:rate=0.05,seed=11")
	code, stdout, stderr := runTesa(t, "sweep", "-grid", "8")
	if code != 4 {
		t.Fatalf("chaos sweep: exit %d, want 4; stderr:\n%s", code, stderr)
	}
	if !regexp.MustCompile(`quarantined [1-9][0-9]* design point\(s\)`).MatchString(stdout) {
		t.Errorf("stdout lacks the quarantine summary:\n%s", stdout)
	}
}

// TestParetoStdoutIsCSV keeps pareto's stdout machine-readable: with the
// telemetry and memo summaries on, every stdout line is a CSV row of the
// header's width and the summaries land on stderr.
func TestParetoStdoutIsCSV(t *testing.T) {
	t.Setenv("TESA_FAULTS", "")
	code, stdout, stderr := runTesa(t, "pareto", "-grid", "8", "-points", "2", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "alpha,beta,") {
		t.Fatalf("want a header and 2 rows, got:\n%s", stdout)
	}
	for _, l := range lines {
		if n := strings.Count(l, ","); n != 10 {
			t.Errorf("non-CSV stdout line (%d commas): %q", n, l)
		}
	}
	for _, want := range []string{"telemetry summary", "memo: "} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestManifestJoinsTrace checks the run manifest of a traced sweep: a
// start and an end record, the end record carrying status, wall time
// and the thermal stage histogram, and its run id carried by the
// manifest records of the -trace stream.
func TestManifestJoinsTrace(t *testing.T) {
	t.Setenv("TESA_FAULTS", "")
	dir := t.TempDir()
	manifest, trace := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "trace.jsonl")
	code, _, stderr := runTesa(t, "sweep", "-grid", "8", "-manifest", manifest, "-trace", trace)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	var end struct {
		Run     string  `json:"run"`
		Status  string  `json:"status"`
		WallSec float64 `json:"wall_sec"`
		Metrics struct {
			Histograms map[string]any `json:"histograms"`
		} `json:"metrics"`
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		phase, _ := rec["phase"].(string)
		phases = append(phases, phase)
		if phase == "end" {
			if err := json.Unmarshal([]byte(line), &end); err != nil {
				t.Fatal(err)
			}
		}
	}
	if strings.Join(phases, ",") != "start,end" {
		t.Fatalf("manifest phases %v, want start,end", phases)
	}
	if end.Status != "ok" || end.WallSec <= 0 || end.Metrics.Histograms["stage.thermal"] == nil {
		t.Errorf("end record incomplete: %+v", end)
	}
	data, err = os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var traced []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Event string `json:"event"`
			Run   string `json:"run"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Event == "run.manifest" {
			traced = append(traced, rec.Run)
		}
	}
	if end.Run == "" || len(traced) != 2 || traced[0] != end.Run || traced[1] != end.Run {
		t.Errorf("trace manifest run ids %q, manifest end record %q", traced, end.Run)
	}
}

// simSpec writes the reference sim spec, edited by mod, to a temp file
// and returns its path and resolved form.
func simSpec(t *testing.T, mod func(*jobspec.Spec)) (string, *jobspec.Resolved) {
	t.Helper()
	spec, err := jobspec.Load(filepath.Join(specDir, "sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	mod(spec)
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sim.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	return path, r
}

// TestSimHonoursSpecPolicies runs sim specs through the subcommand the
// way jobspec.Run runs them: an armed fault plan fails the run with
// Run's error, and deadline_sec cancels it (exit 130).
func TestSimHonoursSpecPolicies(t *testing.T) {
	path, r := simSpec(t, func(s *jobspec.Spec) { s.Policies = &jobspec.Policies{Faults: "panic@systolic"} })
	_, runErr := jobspec.Run(context.Background(), r, jobspec.Runtime{})
	if runErr == nil {
		t.Fatal("the fault plan did not fire under jobspec.Run")
	}
	code, _, stderr := runTesa(t, "sim", "-job", path)
	if code != 1 || !strings.Contains(stderr, runErr.Error()) {
		t.Errorf("faulted sim: exit %d, stderr %q; want exit 1 with %q", code, stderr, runErr)
	}

	path, _ = simSpec(t, func(s *jobspec.Spec) { s.DeadlineSec = 1e-6 })
	if code, _, stderr := runTesa(t, "sim", "-job", path); code != 130 {
		t.Errorf("deadline_sec sim: exit %d, want 130; stderr:\n%s", code, stderr)
	}
}

// TestSimSeededEventLog: the same seed replays a bit-identical event
// log and the same report, apart from the lines naming the files it
// wrote; another seed gives another log.
func TestSimSeededEventLog(t *testing.T) {
	dir := t.TempDir()
	sim := func(seed, name string) (string, []byte) {
		t.Helper()
		events := filepath.Join(dir, name)
		code, stdout, stderr := runTesa(t, "sim", "-grid", "32", "-fps", "15", "-duration", "2", "-dt", "0.1",
			"-seed", seed, "-draws", "2", "-tenant", "ar:MobileNet:diurnal:10:0.1",
			"-tenant", "vr:ResNet-50:poisson:5:0.1", "-events", events)
		if code != 0 {
			t.Fatalf("seed %s: exit %d; stderr:\n%s", seed, code, stderr)
		}
		log, err := os.ReadFile(events)
		if err != nil || len(log) == 0 {
			t.Fatalf("seed %s: no event log (%v)", seed, err)
		}
		return wrote.ReplaceAllString(stdout, ""), log
	}
	outA, logA := sim("42", "a.jsonl")
	outB, logB := sim("42", "b.jsonl")
	_, logC := sim("43", "c.jsonl")
	if !bytes.Equal(logA, logB) {
		t.Error("seed 42 replayed a different event log")
	}
	if outA != outB {
		t.Errorf("seed 42 replayed a different report:\n%s\nvs\n%s", outA, outB)
	}
	if bytes.Equal(logA, logC) {
		t.Error("seeds 42 and 43 produced identical event logs")
	}
}

// wrote matches the report lines naming an output file.
var wrote = regexp.MustCompile(`(?m)^wrote .*\n`)

// shellWords splits one shell command line into words, honouring single
// and double quotes and dropping a trailing comment.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	in, quote := false, rune(0)
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, in = r, true
		case r == '#' && !in:
			return words
		case r == ' ' || r == '\t':
			if in {
				words = append(words, cur.String())
				cur.Reset()
				in = false
			}
		default:
			cur.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, cur.String())
	}
	return words
}

// TestDocCommandsParse parses every `tesa …` command in the code blocks
// of README.md and EXPERIMENTS.md against its subcommand's flag set
// (and `tesa trace diff` against the diff flags), so the docs cannot
// drift from the flags. Every subcommand must appear at least once, and
// every `go run ./cmd/…` must name a command that exists.
func TestDocCommandsParse(t *testing.T) {
	seen := map[string]int{}
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		inBlock, cont := false, ""
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inBlock, cont = !inBlock, ""
				continue
			}
			if !inBlock {
				continue
			}
			line = cont + strings.TrimSpace(line)
			if strings.HasSuffix(line, `\`) {
				cont = strings.TrimSuffix(line, `\`) + " "
				continue
			}
			cont = ""
			words := shellWords(line)
			for len(words) > 0 && strings.Contains(words[0], "=") {
				words = words[1:] // environment assignments
			}
			switch {
			case len(words) >= 3 && words[0] == "go" && words[1] == "run" && words[2] == "./cmd/tesa":
				words = words[3:]
			case len(words) >= 1 && (words[0] == "tesa" || words[0] == "./tesa"):
				words = words[1:]
			case len(words) >= 3 && words[0] == "go" && words[1] == "run" && strings.HasPrefix(words[2], "./cmd/"):
				if _, err := os.Stat(filepath.Join("../..", words[2])); err != nil {
					t.Errorf("%s: %q runs a command that does not exist: %v", doc, line, err)
				}
				continue
			default:
				continue
			}
			kind := jobspec.KindOptimize
			if len(words) > 0 && subcommands[words[0]] != nil {
				kind, words = words[0], words[1:]
			}
			c := newCommand(kind, &bytes.Buffer{}, &bytes.Buffer{})
			subcommands[kind](c)
			err := c.fs.Parse(words)
			if kind == "trace" && err == nil && c.fs.Arg(0) == "diff" {
				fs, _, _ := diffFlags(c)
				err = fs.Parse(c.fs.Args()[1:])
			}
			if err != nil {
				t.Errorf("%s: %q: %v", doc, line, err)
			}
			seen[kind]++
		}
	}
	n := 0
	for _, k := range seen {
		n += k
	}
	t.Logf("parsed %d tesa commands: %v", n, seen)
	if n < 10 {
		t.Errorf("found only %d tesa commands in the docs", n)
	}
	for kind := range subcommands {
		if seen[kind] == 0 {
			t.Errorf("no `tesa %s` command in the docs", kind)
		}
	}
}
