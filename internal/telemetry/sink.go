package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventSink receives structured trace events. Implementations must be
// safe for concurrent use: the multi-start annealers emit from their own
// goroutines.
type EventSink interface {
	// Emit records one event. Fields must be JSON-marshalable; the sink
	// owns the map after the call.
	Emit(event string, fields map[string]any)
	// Flush forces buffered events out.
	Flush() error
}

// JSONLSink writes one JSON object per event, newline-delimited — the
// trace format behind the CLIs' -trace flag. Every record carries:
//
//	ts    RFC3339Nano wall-clock timestamp
//	seq   a process-monotonic sequence number (total order across
//	      concurrent emitters)
//	event the event name (e.g. "anneal.level")
//
// plus the event's own fields. encoding/json sorts map keys, so records
// are byte-stable given identical fields, which keeps traces diffable.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	seq int64
	// now is stubbed in tests.
	now func() time.Time
}

// NewJSONLSink wraps w (typically a file) in a buffered JSONL trace
// sink. Call Flush before the process exits.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw), now: time.Now}
}

// Emit writes one JSONL record. Marshal failures drop the offending
// field set rather than corrupting the trace.
func (s *JSONLSink) Emit(event string, fields map[string]any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := make(map[string]any, len(fields)+3)
	for k, v := range fields {
		rec[k] = v
	}
	rec["ts"] = s.now().Format(time.RFC3339Nano)
	rec["seq"] = s.seq
	rec["event"] = event
	if err := s.enc.Encode(rec); err != nil {
		return
	}
	s.seq++
}

// Flush drains the write buffer.
func (s *JSONLSink) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bw.Flush()
}
