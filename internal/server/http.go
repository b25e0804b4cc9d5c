package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// maxSpecBytes bounds a submitted spec document; anything larger is a
// client error, not a workload.
const maxSpecBytes = 1 << 20

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs            submit a jobspec document → 202 + Status
//	GET    /v1/jobs            list all jobs
//	GET    /v1/jobs/{id}        one job's status (result once done)
//	GET    /v1/jobs/{id}/events SSE progress stream, ends with the final status
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /healthz             liveness: 200 as long as the process serves
//	GET    /readyz              readiness: 503 once draining begins
//
// Telemetry endpoints (/metrics, /progress, ...) are served separately
// by telemetry.Server so the observability surface stays uniform across
// CLIs and the job server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	return mux
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		jobs := s.Jobs()
		sts := make([]Status, 0, len(jobs))
		for _, j := range jobs {
			sts = append(sts, j.Status())
		}
		sortStatuses(sts)
		writeJSON(w, http.StatusOK, map[string]any{"jobs": sts})
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
		return
	}
	job, err := s.Submit(body)
	switch {
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	job, err := s.Job(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, job.Status())
	case sub == "" && r.Method == http.MethodDelete:
		if err := s.Cancel(id); err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	case sub == "events" && r.Method == http.MethodGet:
		s.handleEvents(w, r, job)
	default:
		httpError(w, http.StatusNotFound, "no such endpoint")
	}
}

// handleEvents streams a job's progress as Server-Sent Events: one
// "progress" event per update the client keeps up with, then a single
// "status" event carrying the terminal Status (result included), then
// EOF. Clients that connect after completion get just the status event.
//
// Every event carries an id: line with the job's progress sequence
// number. A reconnecting client replays its Last-Event-ID header;
// progress is latest-wins, so instead of replaying missed ticks the
// server sends one snapshot of the current progress when the client is
// behind, then resumes the live stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, job *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	var last uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			last = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	snap, ch, detach := job.subscribeSince(last)
	defer detach()
	if snap != nil {
		writeEvent(w, "progress", snap.seq, snap.fields)
		fl.Flush()
	}
	for {
		select {
		case u, live := <-ch:
			if !live {
				writeEvent(w, "status", job.lastSeq()+1, job.Status())
				fl.Flush()
				return
			}
			writeEvent(w, "progress", u.seq, u.fields)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleHealth is pure liveness: it answers 200 whenever the process is
// serving, draining included — a draining server is alive, just not
// accepting work. Readiness lives at /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	queued, running, done := s.Counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"draining": s.Draining(),
		"workers":  s.cfg.Workers,
		"queued":   queued,
		"running":  running,
		"finished": done,
	})
}

// handleReady is readiness: 503 once draining begins, so load balancers
// and pollers stop routing new submissions while in-flight jobs retire.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	draining := s.Draining()
	status := http.StatusOK
	if draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":    !draining,
		"draining": draining,
	})
}

// writeEvent emits one SSE frame with an event id and JSON data payload.
func writeEvent(w io.Writer, event string, id uint64, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", event, id, data)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort: client may be gone
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}
