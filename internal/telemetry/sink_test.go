package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestJSONLSinkShape: every emitted record is one parseable JSON line
// carrying ts, seq, event, and the caller's fields.
func TestJSONLSinkShape(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.now = func() time.Time { return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC) }
	s.Emit("anneal.level", map[string]any{"start": 0, "temp": 19.0, "accepted": 7})
	s.Emit("anneal.done", map[string]any{"start": 0, "found": true})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if first["event"] != "anneal.level" || first["seq"] != float64(0) {
		t.Errorf("unexpected header fields: %v", first)
	}
	if first["ts"] != "2026-08-06T12:00:00Z" {
		t.Errorf("ts = %v", first["ts"])
	}
	if first["temp"] != 19.0 || first["accepted"] != float64(7) {
		t.Errorf("payload fields lost: %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if second["seq"] != float64(1) || second["found"] != true {
		t.Errorf("unexpected second record: %v", second)
	}
}

// TestJSONLSinkConcurrent: concurrent emitters never interleave bytes
// and seq stays a total order.
func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Emit("tick", map[string]any{"g": g, "i": i})
			}
		}(g)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != goroutines*perG {
		t.Fatalf("got %d lines, want %d", len(lines), goroutines*perG)
	}
	seen := make(map[int64]bool, len(lines))
	for n, line := range lines {
		var rec struct {
			Seq   int64  `json:"seq"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d corrupt (%v): %q", n, err, line)
		}
		if rec.Event != "tick" || seen[rec.Seq] {
			t.Fatalf("line %d: bad or duplicate record %+v", n, rec)
		}
		seen[rec.Seq] = true
	}
}
