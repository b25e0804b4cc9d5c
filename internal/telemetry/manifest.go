package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// ManifestEvent is the JSONL event name of run-manifest records. Each
// instrumented run emits two: one with phase "start" as soon as flags
// are parsed, and one with phase "end" (carrying tallies, timings, and
// the final metrics snapshot) on exit — so a killed run still leaves
// the start record identifying what it was.
const ManifestEvent = "run.manifest"

// Manifest is the machine-readable identity card of one CLI run:
// command, arguments, run id, and whatever run-defining facts the
// command registers (space fingerprint, model version, seeds, fault
// spec, ...). It accumulates via Set during the run and is finalized
// once at exit with wall/CPU time and the metrics snapshot — which
// carries the thermal-solve, memo, and quarantine tallies as
// counters. Safe for concurrent use; a nil *Manifest is a valid no-op.
type Manifest struct {
	mu      sync.Mutex
	runID   string
	command string
	argv    []string
	started time.Time
	fields  map[string]any
}

// NewManifest opens the manifest of one run of command (invoked with
// argv, os.Args[1:] by convention) and assigns it a fresh run id.
func NewManifest(command string, argv []string) *Manifest {
	return &Manifest{
		runID:   NewRunID(),
		command: command,
		argv:    append([]string(nil), argv...),
		started: time.Now(),
		fields:  make(map[string]any),
	}
}

// NewRunID returns a fresh 16-hex-digit random run identifier — the
// value that binds a run's manifest and trace records together.
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a
		// time-derived id keeps the manifest usable regardless.
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// RunID returns the run's identifier ("" for a nil manifest).
func (m *Manifest) RunID() string {
	if m == nil {
		return ""
	}
	return m.runID
}

// Set records one run-defining fact (e.g. "space", "model_version",
// "seed", "faults"). Later Sets of the same key overwrite. The value
// must be JSON-marshalable and finite.
func (m *Manifest) Set(key string, value any) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.fields[key] = value
	m.mu.Unlock()
}

// Snapshot returns the manifest as a fresh field map (phase "start"):
// run id, command, argv, start timestamp, and every Set fact. The
// caller owns the map. Nil-safe (returns nil).
func (m *Manifest) Snapshot() map[string]any {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked("start")
}

func (m *Manifest) snapshotLocked(phase string) map[string]any {
	rec := make(map[string]any, len(m.fields)+5)
	for k, v := range m.fields {
		rec[k] = v
	}
	rec["phase"] = phase
	rec["run"] = m.runID
	rec["command"] = m.command
	rec["argv"] = append([]string(nil), m.argv...)
	rec["started"] = m.started.Format(time.RFC3339Nano)
	return rec
}

// Finalize returns the end-of-run record (phase "end"): the Snapshot
// fields plus the exit status, wall-clock seconds, user/system CPU
// seconds (zero where the platform cannot report them), and the full
// metrics snapshot — whose counters are the run's thermal-solve,
// memo, and quarantine tallies. The caller owns the map.
func (m *Manifest) Finalize(reg *Registry, status string) map[string]any {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	rec := m.snapshotLocked("end")
	wall := time.Since(m.started).Seconds()
	m.mu.Unlock()
	rec["status"] = status
	rec["wall_sec"] = finiteOr0(wall)
	user, sys := cpuTime()
	rec["cpu_user_sec"] = finiteOr0(user)
	rec["cpu_sys_sec"] = finiteOr0(sys)
	rec["metrics"] = reg.Export()
	return rec
}

// EmitStart writes the phase-"start" manifest record to sink (no-op
// when either side is nil) and flushes, so the record survives even a
// run killed moments later.
func (m *Manifest) EmitStart(sink EventSink) error {
	if m == nil || sink == nil {
		return nil
	}
	sink.Emit(ManifestEvent, m.Snapshot())
	return sink.Flush()
}

// EmitEnd writes the phase-"end" manifest record to sink and flushes.
func (m *Manifest) EmitEnd(sink EventSink, reg *Registry, status string) error {
	if m == nil || sink == nil {
		return nil
	}
	sink.Emit(ManifestEvent, m.Finalize(reg, status))
	return sink.Flush()
}
