package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"tesa/internal/telemetry"
)

// Sweep checkpoints make multi-hour exhaustive runs crash-safe: the
// sharded engine appends one JSONL record per completed shard (through
// the telemetry sink machinery, so the format matches the -trace
// streams), and a killed run restarts from the recorded shards via
// SweepOptions.ResumeFrom.
//
// A checkpoint stream contains three record kinds:
//
//	checkpoint.header    binds the file to one sweep decomposition:
//	                     {"space": <fingerprint>, "total": N,
//	                      "shard_size": K, "shards": S}
//	checkpoint.shard     one completed shard:
//	                     {"shard": i, "feasible": f, "found": bool,
//	                      "best_dim": d, "best_ics": u, "best_obj": o}
//	checkpoint.poisoned  one quarantined design point, written the
//	                     moment its evaluation failed:
//	                     {"dim": d, "ics": u, "stage": s, "reason": r}
//
// plus the sink's own ts/seq/event envelope. Appending a resumed run to
// the same file is legal: repeated headers must agree, and duplicate
// shard/poisoned records overwrite (they are deterministic, so
// identical). A truncated final line — the tail of a run killed
// mid-write — is ignored, whether it is malformed JSON or a record
// whose fields were cut short; corruption anywhere else fails with
// ErrCheckpointCorrupt.

// checkpoint record event names.
const (
	ckptHeaderEvent = "checkpoint.header"
	ckptShardEvent  = "checkpoint.shard"
	ckptPoisonEvent = "checkpoint.poisoned"
)

// ShardCheckpoint is one completed shard's contribution to a sweep:
// its feasible count and its best feasible point, if any.
type ShardCheckpoint struct {
	Shard    int
	Feasible int
	// Found is false when the shard contained no feasible point; Best
	// and BestObj are then meaningless.
	Found   bool
	Best    DesignPoint
	BestObj float64
}

// CheckpointState is the resumable state recovered from a checkpoint
// stream: the sweep decomposition it was taken under plus every
// completed shard.
type CheckpointState struct {
	// Fingerprint identifies the design space (Space.Fingerprint).
	Fingerprint string
	// Total, ShardSize and Shards describe the decomposition; a resume
	// must use the identical one for shard indices to line up.
	Total     int
	ShardSize int
	Shards    int
	// RunID is the run identifier stamped into the first header, joining
	// the checkpoint to that run's manifest and trace records. Optional
	// ("" when the writing run carried none); resumed runs append their
	// own header with a fresh id, which Load deliberately ignores — the
	// state keeps the id of the run that created the file.
	RunID string
	// Done maps shard index to its record.
	Done map[int]ShardCheckpoint
	// Poisoned maps each quarantined design point to its record; a
	// resumed sweep skips these points instead of re-running a
	// deterministic failure.
	Poisoned map[DesignPoint]QuarantinedPoint
}

// Completed returns the number of checkpointed shards.
func (s *CheckpointState) Completed() int { return len(s.Done) }

// CompletedPoints returns the number of design points covered by the
// checkpointed shards.
func (s *CheckpointState) CompletedPoints() int {
	n := 0
	for idx := range s.Done {
		n += shardLen(idx, s.ShardSize, s.Total)
	}
	return n
}

// ShardSizeError reports a shard-size disagreement between a sweep and
// the checkpoint it was asked to resume from (or between two headers of
// one checkpoint stream): the decomposition's shard indices would not
// line up, so the resume is refused. It wraps ErrCheckpointCorrupt, so
// existing errors.Is checks keep matching; errors.As extracts the
// expected and found sizes and the originating run's id for a precise
// operator message.
type ShardSizeError struct {
	// Expected is the shard size the resuming sweep computed or was
	// configured with; Found is the size recorded in the checkpoint
	// header.
	Expected, Found int
	// RunID is the run id from the checkpoint header that recorded
	// Found ("" when the writing run carried none).
	RunID string
}

// Error formats the mismatch with both sizes and the originating run.
func (e *ShardSizeError) Error() string {
	msg := fmt.Sprintf("%v: shard size mismatch: sweep expects %d points per shard, checkpoint recorded %d",
		ErrCheckpointCorrupt, e.Expected, e.Found)
	if e.RunID != "" {
		msg += fmt.Sprintf(" (written by run %s)", e.RunID)
	}
	return msg
}

// Unwrap ties the typed error into the ErrCheckpointCorrupt family.
func (e *ShardSizeError) Unwrap() error { return ErrCheckpointCorrupt }

// validateFor checks that the state belongs to the given decomposition.
func (s *CheckpointState) validateFor(fingerprint string, total, shardSize, shards int) error {
	if s.Fingerprint != fingerprint {
		return fmt.Errorf("%w: checkpoint space %s does not match swept space %s",
			ErrCheckpointCorrupt, s.Fingerprint, fingerprint)
	}
	if s.ShardSize != shardSize {
		return &ShardSizeError{Expected: shardSize, Found: s.ShardSize, RunID: s.RunID}
	}
	if s.Total != total || s.Shards != shards {
		return fmt.Errorf("%w: checkpoint decomposition %d pts/%d per shard/%d shards vs sweep %d/%d/%d",
			ErrCheckpointCorrupt, s.Total, s.ShardSize, s.Shards, total, shardSize, shards)
	}
	return nil
}

// LoadCheckpoint parses a checkpoint stream previously written by a
// checkpointed sweep. Unknown events are skipped (the file may share a
// sink with other trace events), a truncated final line is tolerated,
// and any other inconsistency returns an error wrapping
// ErrCheckpointCorrupt.
func LoadCheckpoint(r io.Reader) (*CheckpointState, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	st := &CheckpointState{
		Done:     make(map[int]ShardCheckpoint),
		Poisoned: make(map[DesignPoint]QuarantinedPoint),
	}
	sawHeader := false
	// Every per-line failure — malformed JSON or a semantically
	// incomplete record — is deferred through badLine: fatal only if any
	// line follows it, so the torn tail of a SIGKILLed run is tolerated
	// no matter where mid-record the write was cut.
	var badLine error
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if badLine != nil {
			return nil, badLine // garbage followed by more records
		}
		var rec map[string]any
		if err := json.Unmarshal(raw, &rec); err != nil {
			badLine = fmt.Errorf("%w: line %d: %v", ErrCheckpointCorrupt, line, err)
			continue
		}
		event, _ := rec["event"].(string)
		switch event {
		case ckptHeaderEvent:
			space, _ := rec["space"].(string)
			total, ok1 := ckptInt(rec, "total")
			size, ok2 := ckptInt(rec, "shard_size")
			shards, ok3 := ckptInt(rec, "shards")
			if space == "" || !ok1 || !ok2 || !ok3 {
				badLine = fmt.Errorf("%w: line %d: incomplete header", ErrCheckpointCorrupt, line)
				continue
			}
			if sawHeader {
				// The run id is NOT compared: every resumed run appends a
				// header carrying its own fresh id over the same
				// decomposition.
				if space == st.Fingerprint && total == st.Total && shards == st.Shards && size != st.ShardSize {
					// Same space, different granularity: the precise typed
					// error names both sizes and the run that wrote first.
					return nil, fmt.Errorf("line %d: conflicting headers: %w",
						line, &ShardSizeError{Expected: st.ShardSize, Found: size, RunID: st.RunID})
				}
				if space != st.Fingerprint || total != st.Total || size != st.ShardSize || shards != st.Shards {
					// Two complete, disagreeing headers are never a torn
					// write: the file mixes different sweeps.
					return nil, fmt.Errorf("%w: line %d: conflicting headers", ErrCheckpointCorrupt, line)
				}
				continue
			}
			sawHeader = true
			st.Fingerprint, st.Total, st.ShardSize, st.Shards = space, total, size, shards
			st.RunID, _ = rec["run"].(string)
		case ckptShardEvent:
			if !sawHeader {
				badLine = fmt.Errorf("%w: line %d: shard record before header", ErrCheckpointCorrupt, line)
				continue
			}
			idx, ok := ckptInt(rec, "shard")
			if !ok || idx < 0 || idx >= st.Shards {
				badLine = fmt.Errorf("%w: line %d: shard index out of range", ErrCheckpointCorrupt, line)
				continue
			}
			feas, ok := ckptInt(rec, "feasible")
			if !ok {
				badLine = fmt.Errorf("%w: line %d: missing feasible count", ErrCheckpointCorrupt, line)
				continue
			}
			cp := ShardCheckpoint{Shard: idx, Feasible: feas}
			cp.Found, _ = rec["found"].(bool)
			if cp.Found {
				dim, ok1 := ckptInt(rec, "best_dim")
				ics, ok2 := ckptInt(rec, "best_ics")
				obj, ok3 := rec["best_obj"].(float64)
				if !ok1 || !ok2 || !ok3 {
					badLine = fmt.Errorf("%w: line %d: incomplete best point", ErrCheckpointCorrupt, line)
					continue
				}
				cp.Best = DesignPoint{ArrayDim: dim, ICSUM: ics}
				cp.BestObj = obj
			}
			st.Done[idx] = cp
		case ckptPoisonEvent:
			if !sawHeader {
				badLine = fmt.Errorf("%w: line %d: poisoned record before header", ErrCheckpointCorrupt, line)
				continue
			}
			dim, ok1 := ckptInt(rec, "dim")
			ics, ok2 := ckptInt(rec, "ics")
			if !ok1 || !ok2 {
				badLine = fmt.Errorf("%w: line %d: incomplete poisoned record", ErrCheckpointCorrupt, line)
				continue
			}
			stage, _ := rec["stage"].(string)
			reason, _ := rec["reason"].(string)
			var trace []string
			if arr, ok := rec["trace"].([]any); ok {
				for _, v := range arr {
					if s, ok := v.(string); ok {
						trace = append(trace, s)
					}
				}
			}
			p := DesignPoint{ArrayDim: dim, ICSUM: ics}
			st.Poisoned[p] = QuarantinedPoint{Point: p, Stage: stage, Reason: reason, Trace: trace}
		default:
			// Foreign trace events interleaved in the same sink.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("%w: missing header", ErrCheckpointCorrupt)
	}
	return st, nil
}

// ckptInt extracts an integer field from a decoded JSON record.
func ckptInt(rec map[string]any, key string) (int, bool) {
	f, ok := rec[key].(float64)
	if !ok || f != float64(int(f)) {
		return 0, false
	}
	return int(f), true
}

// writeCheckpointHeader emits the decomposition-binding record; runID
// ("" = none) joins the stream to the writing run's manifest.
func writeCheckpointHeader(sink telemetry.EventSink, fingerprint string, total, shardSize, shards int, runID string) error {
	fields := map[string]any{
		"space":      fingerprint,
		"total":      total,
		"shard_size": shardSize,
		"shards":     shards,
	}
	if runID != "" {
		fields["run"] = runID
	}
	sink.Emit(ckptHeaderEvent, fields)
	return sink.Flush()
}

// writeShardCheckpoint emits one completed shard and flushes, so a kill
// immediately after loses at most the in-flight shards.
func writeShardCheckpoint(sink telemetry.EventSink, cp ShardCheckpoint) error {
	fields := map[string]any{
		"shard":    cp.Shard,
		"feasible": cp.Feasible,
		"found":    cp.Found,
	}
	if cp.Found {
		fields["best_dim"] = cp.Best.ArrayDim
		fields["best_ics"] = cp.Best.ICSUM
		fields["best_obj"] = cp.BestObj
	}
	sink.Emit(ckptShardEvent, fields)
	return sink.Flush()
}

// writePoisonedCheckpoint emits one quarantined point and flushes
// immediately: the record lands before the point's shard completes, so
// even a kill mid-shard never loses a known-poisoned point.
func writePoisonedCheckpoint(sink telemetry.EventSink, q QuarantinedPoint) error {
	fields := map[string]any{
		"dim":    q.Point.ArrayDim,
		"ics":    q.Point.ICSUM,
		"stage":  q.Stage,
		"reason": q.Reason,
	}
	if len(q.Trace) > 0 {
		// The failing goroutine's flight-recorder dump rides along, so a
		// poisoned point in a cold checkpoint still explains itself.
		fields["trace"] = q.Trace
	}
	sink.Emit(ckptPoisonEvent, fields)
	return sink.Flush()
}

// shardLen returns the number of points in shard idx of an n-point
// enumeration at the given shard size (the last shard may be short).
func shardLen(idx, size, n int) int {
	lo := idx * size
	hi := lo + size
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return 0
	}
	return hi - lo
}
