package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tesa/internal/telemetry"
)

// cancellingSink wraps a checkpoint sink and cancels the sweep once n
// shard records have been written — so the "kill" lands exactly on a
// shard boundary with everything before it flushed, like a real SIGINT.
type cancellingSink struct {
	mu     sync.Mutex
	inner  telemetry.EventSink
	shards int
	after  int
	cancel context.CancelFunc
}

func (s *cancellingSink) Emit(event string, fields map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner.Emit(event, fields)
	if event == ckptShardEvent {
		if s.shards++; s.shards == s.after {
			s.cancel()
		}
	}
}

func (s *cancellingSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Flush()
}

// TestSweepCheckpointResume is the issue's acceptance scenario in
// miniature: checkpoint a sweep, kill it at ~50%, resume on a fresh
// evaluator, and land on the identical result while re-evaluating well
// under 60% of the space.
func TestSweepCheckpointResume(t *testing.T) {
	space := tinySpace()
	const shardSize = 5 // 100 points -> 20 shards

	ref := testEvaluator(t, Tech2D, 400, 15, 85)
	want, err := ref.ExhaustiveContext(context.Background(), space, &SweepOptions{ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	if want.Best == nil {
		t.Fatal("reference sweep found nothing; the space no longer exercises the scenario")
	}
	if want.Shards != 20 || want.Evaluated != 100 || want.Resumed != 0 {
		t.Fatalf("reference decomposition off: %+v", want)
	}

	// Interrupted run: cancel after 10 of 20 shard records.
	var buf bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancellingSink{inner: telemetry.NewJSONLSink(&buf), after: 10, cancel: cancel}
	killed := testEvaluator(t, Tech2D, 400, 15, 85)
	_, err = killed.ExhaustiveContext(ctx, space, &SweepOptions{ShardSize: shardSize, Checkpoint: sink})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep err = %v, want context.Canceled", err)
	}

	state, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if state.Fingerprint != space.Fingerprint() {
		t.Errorf("checkpoint fingerprint %s != space %s", state.Fingerprint, space.Fingerprint())
	}
	if state.Completed() < 10 || state.Completed() >= 20 {
		t.Fatalf("checkpointed %d of 20 shards, want a partial run with >= 10", state.Completed())
	}

	// Resume on a fresh evaluator (cold cache, like a new process).
	fresh := testEvaluator(t, Tech2D, 400, 15, 85)
	got, err := fresh.ExhaustiveContext(context.Background(), space,
		&SweepOptions{ShardSize: shardSize, ResumeFrom: state})
	if err != nil {
		t.Fatal(err)
	}
	if got.Best == nil || got.Best.Point != want.Best.Point || got.Best.Objective != want.Best.Objective {
		t.Errorf("resumed best %+v != uninterrupted best %v/%.6f",
			got.Best, want.Best.Point, want.Best.Objective)
	}
	if got.Feasible != want.Feasible {
		t.Errorf("resumed feasible count %d != %d", got.Feasible, want.Feasible)
	}
	if got.Evaluated+got.Resumed != got.Total {
		t.Errorf("coverage gap: %d evaluated + %d resumed != %d total", got.Evaluated, got.Resumed, got.Total)
	}
	// The issue's bar: a run killed at ~50% must re-evaluate < 60% of
	// the space. 10 checkpointed shards leave at most 50 points.
	if got.Evaluated > 60*got.Total/100 {
		t.Errorf("resume re-evaluated %d of %d points (> 60%%)", got.Evaluated, got.Total)
	}
}

// TestSweepResumeValidation: a resume state must match the swept space
// and decomposition.
func TestSweepResumeValidation(t *testing.T) {
	space := Space{ArrayDims: []int{196, 220}, ICSUMs: []int{200, 800}}
	good := &CheckpointState{
		Fingerprint: space.Fingerprint(), Total: 4, ShardSize: 2, Shards: 2,
		Done: map[int]ShardCheckpoint{0: {Shard: 0}},
	}
	e := testEvaluator(t, Tech2D, 400, 15, 85)

	wrongSpace := *good
	wrongSpace.Fingerprint = "0000000000000000"
	if _, err := e.ExhaustiveContext(context.Background(), space,
		&SweepOptions{ShardSize: 2, ResumeFrom: &wrongSpace}); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("foreign-space resume err = %v, want ErrCheckpointCorrupt", err)
	}

	wrongShard := *good
	wrongShard.ShardSize, wrongShard.Shards = 3, 2
	if _, err := e.ExhaustiveContext(context.Background(), space,
		&SweepOptions{ShardSize: 2, ResumeFrom: &wrongShard}); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("mismatched-decomposition resume err = %v, want ErrCheckpointCorrupt", err)
	}

	// ShardSize 0 adopts the checkpoint's decomposition.
	res, err := e.ExhaustiveContext(context.Background(), space, &SweepOptions{ResumeFrom: good})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 2 || res.Evaluated != 2 {
		t.Errorf("adopted-decomposition resume: %d resumed, %d evaluated, want 2/2", res.Resumed, res.Evaluated)
	}
}

const ckptHeaderLine = `{"event":"checkpoint.header","space":"a1b2c3d4e5f60718","total":10,"shard_size":5,"shards":2}`

// TestLoadCheckpointCorruption walks the failure matrix of the loader.
// A semantically bad record is only provably corruption (rather than the
// torn tail of a killed run) when another line follows it, so each bad
// record here is followed by a valid one.
func TestLoadCheckpointCorruption(t *testing.T) {
	shard := `{"event":"checkpoint.shard","shard":0,"feasible":3,"found":true,"best_dim":196,"best_ics":200,"best_obj":1.5}`
	cases := []struct {
		name  string
		input string
	}{
		{"empty stream", ""},
		{"missing header", shard},
		{"garbage mid-file", ckptHeaderLine + "\n{garbage\n" + shard},
		{"conflicting headers", ckptHeaderLine + "\n" + strings.Replace(ckptHeaderLine, `"total":10`, `"total":99`, 1)},
		{"shard out of range", ckptHeaderLine + "\n" + strings.Replace(shard, `"shard":0`, `"shard":7`, 1) + "\n" + shard},
		{"incomplete header", `{"event":"checkpoint.header","space":"x","total":10}` + "\n" + shard},
		{"found without point", ckptHeaderLine + "\n" + `{"event":"checkpoint.shard","shard":0,"feasible":1,"found":true}` + "\n" + shard},
		{"non-integer count", ckptHeaderLine + "\n" + strings.Replace(shard, `"feasible":3`, `"feasible":3.7`, 1) + "\n" + shard},
		{"incomplete poisoned mid-file", ckptHeaderLine + "\n" + `{"event":"checkpoint.poisoned","dim":196}` + "\n" + shard},
	}
	for _, tc := range cases {
		if _, err := LoadCheckpoint(strings.NewReader(tc.input)); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: err = %v, want ErrCheckpointCorrupt", tc.name, err)
		}
	}
}

// TestLoadCheckpointTolerance: the loader accepts everything a real
// append-mode run can legitimately leave behind.
func TestLoadCheckpointTolerance(t *testing.T) {
	shard0 := `{"event":"checkpoint.shard","shard":0,"feasible":3,"found":true,"best_dim":196,"best_ics":200,"best_obj":1.5}`
	shard1 := `{"event":"checkpoint.shard","shard":1,"feasible":0,"found":false}`

	// A truncated final line is the tail of a run killed mid-write — and
	// the cut can land anywhere: mid-JSON, or after valid JSON but before
	// the record's fields were all written.
	tails := []string{
		`{"event":"checkpoint.sh`,
		`{"event":"checkpoint.shard","shard":7,"feasible":0,"found":false}`, // out-of-range index
		`{"event":"checkpoint.shard","shard":1,"feasible":1,"found":true}`,  // found without point
		`{"event":"checkpoint.poisoned","dim":196}`,                         // cut before ics
	}
	for _, tail := range tails {
		st, err := LoadCheckpoint(strings.NewReader(ckptHeaderLine + "\n" + shard0 + "\n" + tail))
		if err != nil {
			t.Fatalf("truncated tail %q rejected: %v", tail, err)
		}
		if st.Completed() != 1 || st.Done[0].BestObj != 1.5 {
			t.Errorf("truncated-tail state = %+v", st)
		}
	}

	// An appended resume repeats the identical header; duplicate shard
	// records overwrite; foreign trace events interleave; blank lines
	// are skipped.
	mixed := strings.Join([]string{
		ckptHeaderLine,
		`{"event":"sweep.done","total":10}`,
		shard0,
		"",
		ckptHeaderLine,
		shard0,
		shard1,
	}, "\n")
	st, err := LoadCheckpoint(strings.NewReader(mixed))
	if err != nil {
		t.Fatalf("legitimate append stream rejected: %v", err)
	}
	if st.Completed() != 2 || st.Total != 10 || st.ShardSize != 5 {
		t.Errorf("append-stream state = %+v", st)
	}
	if st.CompletedPoints() != 10 {
		t.Errorf("completed points = %d, want 10", st.CompletedPoints())
	}
}

// TestLoadCheckpointRoundTrip: what the writers emit, the loader reads
// back verbatim.
func TestLoadCheckpointRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	if err := writeCheckpointHeader(sink, "cafe0123cafe0123", 17, 5, 4, "deadbeef00112233"); err != nil {
		t.Fatal(err)
	}
	shards := []ShardCheckpoint{
		{Shard: 0, Feasible: 2, Found: true, Best: DesignPoint{ArrayDim: 196, ICSUM: 200}, BestObj: 2.25},
		{Shard: 3, Feasible: 0},
	}
	for _, cp := range shards {
		if err := writeShardCheckpoint(sink, cp); err != nil {
			t.Fatal(err)
		}
	}
	poisoned := []QuarantinedPoint{
		{Point: DesignPoint{ArrayDim: 200, ICSUM: 400}, Stage: "thermal", Reason: "solver-diverged",
			Trace: []string{"+0s stage.systolic dim=200 ics=400", "+1ms stage.thermal dim=200 ics=400"}},
		{Point: DesignPoint{ArrayDim: 204, ICSUM: 0}, Stage: "systolic", Reason: "panic"},
	}
	for _, q := range poisoned {
		if err := writePoisonedCheckpoint(sink, q); err != nil {
			t.Fatal(err)
		}
	}
	st, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Fingerprint != "cafe0123cafe0123" || st.Total != 17 || st.ShardSize != 5 || st.Shards != 4 {
		t.Errorf("header round-trip: %+v", st)
	}
	if st.RunID != "deadbeef00112233" {
		t.Errorf("run id round-trip: %q", st.RunID)
	}
	for _, cp := range shards {
		if got := st.Done[cp.Shard]; got != cp {
			t.Errorf("shard %d round-trip: %+v != %+v", cp.Shard, got, cp)
		}
	}
	if len(st.Poisoned) != len(poisoned) {
		t.Fatalf("poisoned round-trip: %d records, want %d", len(st.Poisoned), len(poisoned))
	}
	for _, q := range poisoned {
		if got := st.Poisoned[q.Point]; !reflect.DeepEqual(got, q) {
			t.Errorf("poisoned %v round-trip: %+v != %+v", q.Point, got, q)
		}
	}
	// The short final shard (17 points, size 5): shard 3 covers 2.
	if n := shardLen(3, 5, 17); n != 2 {
		t.Errorf("shardLen(3,5,17) = %d, want 2", n)
	}
}

// TestBetterPointTieBreak: the deterministic incumbent order — the PR's
// tie-break bugfix — is a strict total order.
func TestBetterPointTieBreak(t *testing.T) {
	a := DesignPoint{ArrayDim: 126, ICSUM: 0}
	b := DesignPoint{ArrayDim: 126, ICSUM: 400}
	c := DesignPoint{ArrayDim: 128, ICSUM: 0}
	if !BetterPoint(1.0, a, 1.0, b) || BetterPoint(1.0, b, 1.0, a) {
		t.Error("ICS tie-break is not a strict order")
	}
	if !BetterPoint(1.0, b, 1.0, c) || BetterPoint(1.0, c, 1.0, b) {
		t.Error("array-dim tie-break is not a strict order")
	}
	if !BetterPoint(0.5, c, 1.0, a) {
		t.Error("objective must dominate the lexicographic order")
	}
	if BetterPoint(1.0, a, 1.0, a) {
		t.Error("a point must not beat itself")
	}
}

// TestShardSizeErrorTyped: a shard-size mismatch is no longer a generic
// corruption string — errors.As recovers the expected vs found sizes
// and the run id of the header that recorded them, on both the resume
// path and the conflicting-header path of the loader.
func TestShardSizeErrorTyped(t *testing.T) {
	space := Space{ArrayDims: []int{196, 220}, ICSUMs: []int{200, 800}}
	st := &CheckpointState{
		Fingerprint: space.Fingerprint(), Total: 4, ShardSize: 4, Shards: 1,
		RunID: "feedfacefeedface",
		Done:  map[int]ShardCheckpoint{},
	}
	e := testEvaluator(t, Tech2D, 400, 15, 85)
	_, err := e.ExhaustiveContext(context.Background(), space,
		&SweepOptions{ShardSize: 2, ResumeFrom: st})
	var sse *ShardSizeError
	if !errors.As(err, &sse) {
		t.Fatalf("resume err = %v, want *ShardSizeError", err)
	}
	if sse.Expected != 2 || sse.Found != 4 || sse.RunID != "feedfacefeedface" {
		t.Errorf("ShardSizeError = %+v, want expected 2, found 4, run feedfacefeedface", sse)
	}
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("typed error must stay in the ErrCheckpointCorrupt family, got %v", err)
	}
	for _, part := range []string{"2", "4", "feedfacefeedface"} {
		if !strings.Contains(sse.Error(), part) {
			t.Errorf("message %q does not name %q", sse.Error(), part)
		}
	}

	// Conflicting headers of one stream that differ only in shard_size
	// produce the same typed error, attributed to the first header's run.
	withRun := strings.Replace(ckptHeaderLine, `"shards":2`, `"shards":2,"run":"cafebabecafebabe"`, 1)
	resized := strings.Replace(ckptHeaderLine, `"shard_size":5`, `"shard_size":2`, 1)
	resized = strings.Replace(resized, `"shards":2`, `"shards":2`, 1)
	_, err = LoadCheckpoint(strings.NewReader(withRun + "\n" + resized))
	sse = nil
	if !errors.As(err, &sse) {
		t.Fatalf("loader err = %v, want *ShardSizeError", err)
	}
	if sse.Expected != 5 || sse.Found != 2 || sse.RunID != "cafebabecafebabe" {
		t.Errorf("loader ShardSizeError = %+v, want expected 5, found 2, run cafebabecafebabe", sse)
	}
}
