package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// FileSink is a crash-safe JSONL event sink over a file path, used for
// run manifests (but usable for any trace stream):
//
//   - A fresh file is first written as path+".tmp" and atomically
//     renamed into place on the first Flush, so the final path either
//     does not exist or starts with complete records — a kill during
//     the initial writes can never leave a torn header behind.
//   - An existing file is opened in append mode, so runs that share a
//     -manifest path accumulate their records in one file.
//   - Every Flush drains the write buffer and fsyncs the file (and, for
//     the first flush of a fresh file, the parent directory after the
//     rename), so a flushed record survives a machine crash, not just a
//     process kill.
//
// Emit never blocks on the disk — durability is paid at Flush, which the
// manifest calls once per record.
type FileSink struct {
	mu   sync.Mutex
	f    *os.File
	sink *JSONLSink
	path string
	// tmpPath is non-empty until the first Flush renames the file into
	// place; an existing file opened for append starts empty.
	tmpPath string
}

// NewFileSink opens path for durable event appends, creating it (via
// the temp-file + rename protocol) when it does not exist.
func NewFileSink(path string) (*FileSink, error) {
	s := &FileSink{path: path}
	if _, err := os.Stat(path); err == nil {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("telemetry: file sink: %w", err)
		}
		s.f = f
	} else if os.IsNotExist(err) {
		tmp := path + ".tmp"
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("telemetry: file sink: %w", err)
		}
		s.f, s.tmpPath = f, tmp
	} else {
		return nil, fmt.Errorf("telemetry: file sink: %w", err)
	}
	s.sink = NewJSONLSink(s.f)
	return s, nil
}

// Path returns the final path of the sink's file (which may still be at
// its temporary name until the first Flush).
func (s *FileSink) Path() string { return s.path }

// Emit buffers one JSONL record (see JSONLSink for the envelope).
func (s *FileSink) Emit(event string, fields map[string]any) {
	if s == nil {
		return
	}
	s.sink.Emit(event, fields)
}

// Flush drains the buffer, fsyncs the file, and — on the first flush of
// a fresh file — renames it into its final place and fsyncs the parent
// directory so the rename itself is durable.
func (s *FileSink) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sink.Flush(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("telemetry: file sink: %w", err)
	}
	if s.tmpPath != "" {
		if err := os.Rename(s.tmpPath, s.path); err != nil {
			return fmt.Errorf("telemetry: file sink: %w", err)
		}
		s.tmpPath = ""
		if dir, err := os.Open(filepath.Dir(s.path)); err == nil {
			// Directory fsync is advisory on some filesystems; the
			// rename itself is already atomic.
			_ = dir.Sync()
			_ = dir.Close()
		}
	}
	return nil
}

// Close flushes (including the rename of a never-flushed fresh file, so
// even an empty stream ends up at its final path) and closes the
// file.
func (s *FileSink) Close() error {
	if s == nil {
		return nil
	}
	if err := s.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
