// Package server turns the tesa design-space-exploration library into a
// long-running service. A Server owns a bounded worker pool and a job
// table; clients POST versioned jobspec documents to /v1/jobs, poll or
// stream progress, and fetch wire-form results by job id. All jobs in
// one process share a single memoization store and telemetry hub, so a
// request warms the cache for every later request that overlaps with
// it — the service gets faster as it runs.
//
// The package sits below the root facade: it imports internal/jobspec
// and the engine packages but never the public "tesa" package, keeping
// the facade free to re-export the client types.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"tesa/internal/core"
	"tesa/internal/jobspec"
	"tesa/internal/memo"
	"tesa/internal/telemetry"
)

// State labels a job's position in its lifecycle.
type State string

// Job lifecycle states. A job moves queued → running → one of the three
// terminal states; Cancel may retire it from either live state.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Config sizes a Server and wires it into process-wide state.
type Config struct {
	// Workers is the number of jobs executed concurrently (default 2).
	Workers int
	// Queue bounds the number of accepted-but-unstarted jobs; a full
	// queue rejects submissions with 429 (default 64).
	Queue int
	// Store is the process-wide memoization store shared by every job
	// (nil disables memoization and with it cross-request warmth).
	Store *memo.Store
	// Tel is the shared observability hub; the server publishes
	// tesa_serve_* metrics through it (nil disables).
	Tel *telemetry.Telemetry
	// DefaultDeadline bounds jobs whose spec carries no deadline_sec
	// (0 = unbounded).
	DefaultDeadline time.Duration
	// Parallel is the per-job annealer worker-pool width passed through
	// to OptimizeOptions.Parallel (default max(1, GOMAXPROCS/Workers),
	// so concurrent jobs share the cores). It changes scheduling only,
	// never a job's answer.
	Parallel int
	// BaseDir anchors relative workload_file paths in submitted specs
	// ("" = the server's working directory).
	BaseDir string
}

// Job is the server-side record of one submitted spec.
type Job struct {
	// ID is the server-assigned job identifier (16 hex digits).
	ID string
	// Kind echoes the spec's kind ("optimize", "sweep", or "pareto").
	Kind string

	mu       sync.Mutex
	state    State
	result   *jobspec.Result
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	progress map[string]any
	seq      uint64
	subs     map[chan progressUpdate]struct{}
	cancel   context.CancelFunc
	done     chan struct{}

	resolved *jobspec.Resolved
}

// Status is the wire-form snapshot of a job returned by the status and
// list endpoints.
type Status struct {
	// ID is the job identifier assigned at submission.
	ID string `json:"id"`
	// Kind is the job kind from the spec.
	Kind string `json:"kind"`
	// State is the lifecycle state at snapshot time.
	State State `json:"state"`
	// Error carries the failure message for failed/canceled jobs.
	Error string `json:"error,omitempty"`
	// Result is the wire-form outcome, present once State is "done".
	Result *jobspec.Result `json:"result,omitempty"`
	// Created/Started/Finished are the lifecycle timestamps (RFC 3339);
	// Started and Finished are zero until the transition happens.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	// Progress is the latest flattened progress update, nil before the
	// first one arrives.
	Progress map[string]any `json:"progress,omitempty"`
}

// Server executes jobspec jobs on a bounded worker pool.
type Server struct {
	cfg   Config
	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for stable listings
	draining bool

	root    context.Context
	stop    context.CancelFunc
	workers sync.WaitGroup
}

// ErrDraining rejects submissions while the server shuts down.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// ErrQueueFull rejects submissions when the pending queue is at capacity.
var ErrQueueFull = errors.New("server: job queue full")

// ErrNotFound reports an unknown job id.
var ErrNotFound = errors.New("server: no such job")

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = max(1, runtime.GOMAXPROCS(0)/cfg.Workers)
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *Job, cfg.Queue),
		jobs:  make(map[string]*Job),
	}
	s.root, s.stop = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Submit parses, validates, and enqueues one spec document, returning
// the new job's id. The spec is resolved eagerly so malformed documents
// fail at submission, not minutes later on a worker.
func (s *Server) Submit(raw []byte) (*Job, error) {
	spec, err := jobspec.Parse(raw)
	if err != nil {
		return nil, err
	}
	r, err := spec.Resolve(s.cfg.BaseDir)
	if err != nil {
		return nil, err
	}
	if r.Deadline == 0 {
		r.Deadline = s.cfg.DefaultDeadline
	}
	job := &Job{
		ID:       telemetry.NewRunID(),
		Kind:     r.Kind,
		state:    StateQueued,
		created:  time.Now(),
		subs:     make(map[chan progressUpdate]struct{}),
		done:     make(chan struct{}),
		resolved: r,
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()

	s.count("serve_jobs_submitted")
	s.gaugeQueue()
	return job, nil
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return job, nil
}

// Jobs lists all jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel stops a queued or running job. Canceling a terminal job is a
// no-op; an unknown id is ErrNotFound.
func (s *Server) Cancel(id string) error {
	job, err := s.Job(id)
	if err != nil {
		return err
	}
	job.mu.Lock()
	switch {
	case job.state.Terminal():
		job.mu.Unlock()
		return nil
	case job.state == StateQueued:
		// The worker will see the canceled state and skip it.
		job.finish(StateCanceled, nil, context.Canceled)
		job.mu.Unlock()
	default:
		cancel := job.cancel
		job.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	s.count("serve_jobs_canceled")
	return nil
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the pool down: new submissions are refused, queued and
// running jobs are canceled, and Drain returns when every worker has
// retired or ctx expires. It is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.stop() // cancels every in-flight job's context
		close(s.queue)
	}
	doneCh := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain timed out: %w", ctx.Err())
	}
}

// worker pulls jobs off the queue until Drain closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for job := range s.queue {
		s.runJob(job)
		s.gaugeQueue()
	}
}

// runJob executes one job to a terminal state.
func (s *Server) runJob(job *Job) {
	job.mu.Lock()
	if job.state.Terminal() { // canceled while queued
		job.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.root)
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	resolved := job.resolved
	job.mu.Unlock()
	defer cancel()

	start := time.Now()
	res, err := jobspec.Run(ctx, resolved, jobspec.Runtime{
		Store:    s.cfg.Store,
		Tel:      s.cfg.Tel,
		Progress: job.publish,
		Parallel: s.cfg.Parallel,
	})

	job.mu.Lock()
	switch {
	case err == nil:
		job.finish(StateDone, res, nil)
		s.count("serve_jobs_done")
	case errors.Is(err, context.Canceled):
		job.finish(StateCanceled, nil, err)
	default:
		job.finish(StateFailed, nil, err)
		s.count("serve_jobs_failed")
	}
	job.mu.Unlock()
	s.observe("serve_job_seconds", time.Since(start).Seconds())
}

// Status snapshots the job for the wire.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:       j.ID,
		Kind:     j.Kind,
		State:    j.state,
		Error:    j.errMsg,
		Result:   j.result,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.progress != nil {
		p := make(map[string]any, len(j.progress))
		for k, v := range j.progress {
			p[k] = v
		}
		st.Progress = p
	}
	return st
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// finish moves the job to a terminal state. Caller holds j.mu.
func (j *Job) finish(state State, res *jobspec.Result, err error) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = res
	// A terminal job never runs again; dropping its resolved spec (an
	// inline or file workload is the job's own copy) keeps a long-lived
	// server's job table down to results.
	j.resolved = nil
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
	close(j.done)
}

// progressUpdate pairs one flattened progress map with the job's
// monotone sequence number; the SSE layer exposes the number as the
// event id so reconnecting clients can say where they left off.
type progressUpdate struct {
	seq    uint64
	fields map[string]any
}

// publish is the job's core.ProgressFunc: it keeps the latest flattened
// update and fans it out to subscribers without ever blocking the
// engine — a subscriber that falls behind misses ticks, not the stream.
func (j *Job) publish(p core.Progress) {
	f := progressFields(p)
	j.mu.Lock()
	j.seq++
	j.progress = f
	u := progressUpdate{seq: j.seq, fields: f}
	for ch := range j.subs {
		select {
		case ch <- u:
		default:
		}
	}
	j.mu.Unlock()
}

// lastSeq returns the sequence number of the latest published update.
func (j *Job) lastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// subscribeSince registers a progress channel; the returned func
// detaches it. Channels are closed when the job finishes, and a
// subscription to an already-terminal job returns a closed channel.
// When the subscriber's last-seen sequence number trails the job's,
// the current progress is returned as a snapshot to emit first:
// progress is latest-wins, so a reconnect needs the present state, not
// a replay of missed ticks.
func (j *Job) subscribeSince(last uint64) (*progressUpdate, <-chan progressUpdate, func()) {
	ch := make(chan progressUpdate, 16)
	j.mu.Lock()
	var snap *progressUpdate
	if j.progress != nil && j.seq > last {
		snap = &progressUpdate{seq: j.seq, fields: j.progress}
	}
	if j.state.Terminal() {
		close(ch)
		j.mu.Unlock()
		return snap, ch, func() {}
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return snap, ch, func() {
		j.mu.Lock()
		if _, live := j.subs[ch]; live {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// progressFields flattens a Progress update into the always-finite map
// streamed over SSE (mirrors internal/cli: the full Evaluation can
// carry NaN fields that must never reach JSON).
func progressFields(p core.Progress) map[string]any {
	f := map[string]any{
		"phase":       p.Phase,
		"done":        p.Done,
		"total":       p.Total,
		"quarantined": p.Quarantined,
		"improved":    p.Improved,
		"elapsed_sec": p.Elapsed.Seconds(),
	}
	if p.Incumbent != nil {
		f["best_dim"] = p.Incumbent.Point.ArrayDim
		f["best_ics"] = p.Incumbent.Point.ICSUM
		if obj := p.Incumbent.Objective; !math.IsNaN(obj) && !math.IsInf(obj, 0) {
			f["best_obj"] = obj
		}
	}
	return f
}

// count bumps a server counter on the shared registry.
func (s *Server) count(name string) {
	if s.cfg.Tel.Enabled() {
		s.cfg.Tel.Registry().Counter(name).Inc()
	}
}

// observe records a server histogram sample on the shared registry.
func (s *Server) observe(name string, v float64) {
	if s.cfg.Tel.Enabled() {
		s.cfg.Tel.Registry().Histogram(name).Observe(v)
	}
}

// gaugeQueue publishes the current pending-queue depth.
func (s *Server) gaugeQueue() {
	if s.cfg.Tel.Enabled() {
		s.cfg.Tel.Registry().Gauge("serve_queue_depth").Set(float64(len(s.queue)))
	}
}

// Counts returns (queued, running, terminal) job tallies for /healthz.
func (s *Server) Counts() (queued, running, done int) {
	for _, job := range s.Jobs() {
		job.mu.Lock()
		switch {
		case job.state == StateQueued:
			queued++
		case job.state == StateRunning:
			running++
		default:
			done++
		}
		job.mu.Unlock()
	}
	return
}

// sortStatuses orders wire statuses by creation time then id, for
// deterministic listings even when timestamps collide.
func sortStatuses(sts []Status) {
	sort.Slice(sts, func(i, j int) bool {
		if !sts[i].Created.Equal(sts[j].Created) {
			return sts[i].Created.Before(sts[j].Created)
		}
		return sts[i].ID < sts[j].ID
	})
}
