package telemetry

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// readRecords parses a JSONL file back into its event names.
func readRecords(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("corrupt record %q: %v", sc.Text(), err)
		}
		ev, _ := rec["event"].(string)
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestFileSinkFreshFile: a fresh sink writes to path+".tmp" until the
// first Flush, then atomically lands at the final path — a crash before
// the flush leaves no (possibly torn) final file behind.
func TestFileSinkFreshFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	s, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Emit("a", map[string]any{"x": 1})
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("final path exists before first Flush (err=%v)", err)
	}
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("temp file missing before first Flush: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file survives the rename (err=%v)", err)
	}
	s.Emit("b", nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readRecords(t, path); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("records = %v, want [a b]", got)
	}
}

// TestFileSinkCloseWithoutFlush: Close alone still renames a fresh file
// into place, so even an empty or unflushed sink ends at its final path.
func TestFileSinkCloseWithoutFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	s, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Emit("only", nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readRecords(t, path); len(got) != 1 || got[0] != "only" {
		t.Errorf("records = %v, want [only]", got)
	}
}

// TestFileSinkAppend: reopening an existing file appends — a second run
// writing to the same -manifest path — and never routes through a temp
// file (which would clobber the prior records on rename).
func TestFileSinkAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	s, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Emit("first", nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("append reopen created a temp file (err=%v)", err)
	}
	s2.Emit("second", nil)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readRecords(t, path); len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Errorf("records = %v, want [first second]", got)
	}
}

// TestFileSinkConcurrentWriters: many goroutines emitting and flushing
// at once — the multi-start annealers' trace pattern — must produce a
// file of intact, parseable records with no interleaved bytes. Run with
// -race in CI.
func TestFileSinkConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	s, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Emit("ev", map[string]any{"writer": w, "i": i})
				if i%10 == 0 {
					if err := s.Flush(); err != nil {
						t.Errorf("flush: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := readRecords(t, path) // fails the test on any torn record
	if len(got) != writers*perWriter {
		t.Fatalf("got %d records, want %d", len(got), writers*perWriter)
	}
}

// TestFileSinkCrashSafeFinalize: a "crash" (abandoning the sink without
// Flush/Close) before the first flush must leave the final path absent —
// readers never see a torn fresh file — while a crash after a flush
// leaves every flushed record intact on disk.
func TestFileSinkCrashSafeFinalize(t *testing.T) {
	dir := t.TempDir()

	// Crash before first flush: only the .tmp exists.
	p1 := filepath.Join(dir, "crash-early.jsonl")
	s1, err := NewFileSink(p1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Emit("torn", nil)
	// No Flush, no Close: simulate SIGKILL by just dropping the sink.
	if _, err := os.Stat(p1); !os.IsNotExist(err) {
		t.Fatalf("final path exists after pre-flush crash (err=%v)", err)
	}
	s1.f.Close() // release the fd so TempDir cleanup works everywhere

	// Crash after a flush: the flushed records are durable at the final
	// path even though Close never ran.
	p2 := filepath.Join(dir, "crash-late.jsonl")
	s2, err := NewFileSink(p2)
	if err != nil {
		t.Fatal(err)
	}
	s2.Emit("kept", nil)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	s2.Emit("lost-maybe", nil) // buffered, never flushed
	if got := readRecords(t, p2); len(got) < 1 || got[0] != "kept" {
		t.Fatalf("flushed record missing after post-flush crash: %v", got)
	}
	s2.f.Close()
}

// TestFileSinkNil: the nil sink is the disabled fast path everywhere.
func TestFileSinkNil(t *testing.T) {
	var s *FileSink
	s.Emit("x", nil)
	if err := s.Flush(); err != nil {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}
