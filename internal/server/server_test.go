package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tesa/internal/jobspec"
	"tesa/internal/memo"
)

// tinySpec is a fast feasible optimize job (see internal/core's
// tinySpace: dims near 200 are feasible at 15 fps / 85 C).
const tinySpec = `{
  "version": "tesa.jobspec/v1",
  "kind": "optimize",
  "options": {"tech": "2d", "freq_mhz": 400, "grid": 16},
  "constraints": {"fps": 15, "temp_c": 85},
  "space": {"array_dims": [180, 200, 220], "ics_ums": [0, 500, 1000]},
  "seed": 1
}`

// slowSpec is a full-space sweep at a fine grid — long enough to still
// be running when a test cancels or drains it.
const slowSpec = `{
  "version": "tesa.jobspec/v1",
  "kind": "sweep",
  "options": {"grid": 48},
  "space": {"preset": "default"}
}`

func testServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		hs.Close()
	})
	return s, NewClient(hs.URL, hs.Client())
}

// TestServerMatchesLibraryPath is the API contract: a spec run through
// the HTTP server returns a byte-identical wire result to the same spec
// run through the library. Memoization on the server side must not
// change the bytes either.
func TestServerMatchesLibraryPath(t *testing.T) {
	_, cl := testServer(t, Config{Workers: 2, Store: memo.NewStore()})

	got, err := cl.Run(context.Background(), []byte(tinySpec), nil)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := jobspec.Parse([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		t.Fatal(err)
	}
	want, err := jobspec.Run(context.Background(), r, jobspec.Runtime{})
	if err != nil {
		t.Fatal(err)
	}

	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Errorf("server result drifted from library result:\nserver: %s\nlib:    %s", a, b)
	}
	if !got.Found {
		t.Fatalf("tiny optimize found nothing: %s", a)
	}
}

// TestServerSharedMemo submits the same job twice to one server and
// checks the second run hits the process-wide store warmed by the first.
func TestServerSharedMemo(t *testing.T) {
	store := memo.NewStore()
	_, cl := testServer(t, Config{Workers: 1, Store: store})

	first, err := cl.Run(context.Background(), []byte(tinySpec), nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := store.Stats().Hits
	second, err := cl.Run(context.Background(), []byte(tinySpec), nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := store.Stats().Hits
	if warm <= cold {
		t.Errorf("second identical job saw no new memo hits (cold=%d warm=%d)", cold, warm)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Errorf("memo-warm rerun changed the result:\ncold: %s\nwarm: %s", a, b)
	}
}

// TestServerEvents exercises the SSE path: progress events arrive while
// the job runs and the stream terminates with the final status.
func TestServerEvents(t *testing.T) {
	_, cl := testServer(t, Config{Workers: 1})

	// A multi-point sweep emits steady per-point progress, so the SSE
	// subscriber reliably attaches while updates are still flowing.
	eventSpec := `{
	  "version": "tesa.jobspec/v1",
	  "kind": "sweep",
	  "options": {"grid": 24},
	  "constraints": {"fps": 15, "temp_c": 85},
	  "space": {"preset": "validation"}
	}`
	st, err := cl.Submit(context.Background(), []byte(eventSpec))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var updates int
	final, err := cl.Wait(context.Background(), st.ID, 0, func(map[string]any) {
		mu.Lock()
		updates++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("job did not finish cleanly: %+v", final)
	}
	mu.Lock()
	n := updates
	mu.Unlock()
	if n == 0 {
		t.Error("no progress events observed over SSE")
	}
}

// TestServerRejections covers the client-error surface: malformed
// specs, unknown ids, a full queue, and a draining server.
func TestServerRejections(t *testing.T) {
	s, cl := testServer(t, Config{Workers: 1, Queue: 1})
	ctx := context.Background()

	if _, err := cl.Submit(ctx, []byte(`{"version":"tesa.jobspec/v1"}`)); err == nil ||
		!strings.Contains(err.Error(), "missing kind") {
		t.Errorf("bad spec err = %v, want missing kind", err)
	}
	if _, err := cl.Submit(ctx, []byte(`{"version":"tesa.jobspec/v1","kind":"sweep","sweep":{"shard_size":4}}`)); err == nil ||
		!strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("removed sweep section err = %v, want 400 unknown field", err)
	}
	for _, removed := range []string{`"front":"nsga2"`, `"pop":6`, `"gens":2`} {
		spec := `{"version":"tesa.jobspec/v1","kind":"pareto","pareto":{` + removed + `}}`
		if _, err := cl.Submit(ctx, []byte(spec)); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("removed pareto input %s err = %v, want 400", removed, err)
		}
	}
	if _, err := cl.Status(ctx, "deadbeefdeadbeef"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("unknown id err = %v, want 404", err)
	}

	// Saturate: one slow job runs, one fills the queue, the next bounces.
	running, err := cl.Submit(ctx, []byte(slowSpec))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, running.ID, StateRunning)
	if _, err := cl.Submit(ctx, []byte(slowSpec)); err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	if _, err := cl.Submit(ctx, []byte(slowSpec)); err == nil ||
		!strings.Contains(err.Error(), "429") {
		t.Errorf("full-queue err = %v, want 429", err)
	}

	// Drain: in-flight jobs cancel, new submissions bounce with 503.
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := cl.Submit(ctx, []byte(tinySpec)); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Errorf("draining err = %v, want 503", err)
	}
	// Liveness stays green while draining; readiness goes red.
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := h["ok"].(bool); !ok {
		t.Errorf("healthz not ok during drain (liveness must survive): %v", h)
	}
	if draining, _ := h["draining"].(bool); !draining {
		t.Errorf("healthz draining = false during drain: %v", h)
	}
	rd, err := cl.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ready, _ := rd["ready"].(bool); ready {
		t.Errorf("readyz ready during drain: %v", rd)
	}
	st, err := cl.Status(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Errorf("drained job state = %s, want canceled", st.State)
	}
}

// TestServerCancel cancels a running job and a queued job.
func TestServerCancel(t *testing.T) {
	_, cl := testServer(t, Config{Workers: 1, Queue: 4})
	ctx := context.Background()

	running, err := cl.Submit(ctx, []byte(slowSpec))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := cl.Submit(ctx, []byte(slowSpec))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, running.ID, StateRunning)

	if err := cl.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	if err := cl.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		st, err := cl.Wait(ctx, id, 10*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCanceled {
			t.Errorf("job %s state = %s, want canceled", id, st.State)
		}
	}
}

// TestTerminalJobReleasesSpec: a job that reaches a terminal state —
// canceled while running, canceled while queued, or done — drops its
// resolved spec, so a long-lived server's job table holds only results.
func TestTerminalJobReleasesSpec(t *testing.T) {
	s, cl := testServer(t, Config{Workers: 1, Queue: 4})
	ctx := context.Background()
	running, err := cl.Submit(ctx, []byte(slowSpec))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := cl.Submit(ctx, []byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, running.ID, StateRunning)
	for _, id := range []string{queued.ID, running.ID} {
		if err := cl.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	done, err := cl.Submit(ctx, []byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{running.ID, queued.ID, done.ID} {
		st, err := cl.Wait(ctx, id, 10*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		job, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		job.mu.Lock()
		kept := job.resolved != nil
		job.mu.Unlock()
		if kept {
			t.Errorf("job %s ended %s but still holds its resolved spec", id, st.State)
		}
	}
}

// TestDrainConcurrentSubmissions races a burst of submissions against
// two concurrent Drain calls (run with -race): every submission must
// either be accepted or rejected with ErrDraining/ErrQueueFull — never
// hang or panic — accepted jobs must still reach a terminal state, and
// the second Drain must be an idempotent no-op.
func TestDrainConcurrentSubmissions(t *testing.T) {
	s := New(Config{Workers: 2, Queue: 4})

	const submitters = 24
	var wg sync.WaitGroup
	start := make(chan struct{})
	subErrs := make([]error, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, subErrs[i] = s.Submit([]byte(tinySpec))
		}(i)
	}
	drainErrs := make([]error, 2)
	for i := range drainErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			drainErrs[i] = s.Drain(ctx)
		}(i)
	}
	close(start)

	raced := make(chan struct{})
	go func() {
		wg.Wait()
		close(raced)
	}()
	select {
	case <-raced:
	case <-time.After(30 * time.Second):
		t.Fatal("submissions racing Drain hung")
	}

	for i, err := range subErrs {
		if err != nil && !errors.Is(err, ErrDraining) && !errors.Is(err, ErrQueueFull) {
			t.Errorf("submitter %d: unexpected error %v", i, err)
		}
	}
	for i, err := range drainErrs {
		if err != nil {
			t.Errorf("drain %d: %v", i, err)
		}
	}
	// Drain has returned, so every accepted job must already be terminal.
	for _, job := range s.Jobs() {
		select {
		case <-job.Done():
		default:
			t.Errorf("job %s still live after Drain returned (%s)", job.ID, job.Status().State)
		}
	}
	// A third Drain after completion is a cheap no-op.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("post-drain Drain: %v", err)
	}
}

// TestEventsLastEventID checks the SSE resume contract: events carry
// monotone id: lines, and a reconnect replaying Last-Event-ID gets one
// snapshot of the current progress only when it is behind.
func TestEventsLastEventID(t *testing.T) {
	_, cl := testServer(t, Config{Workers: 1})
	ctx := context.Background()

	// Run a multi-point sweep to completion so the finished job holds a
	// final progress snapshot with a known sequence number.
	eventSpec := `{
	  "version": "tesa.jobspec/v1",
	  "kind": "sweep",
	  "options": {"grid": 24},
	  "constraints": {"fps": 15, "temp_c": 85},
	  "space": {"preset": "validation"}
	}`
	st, err := cl.Submit(ctx, []byte(eventSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.ID, 0, nil); err != nil {
		t.Fatal(err)
	}

	// A stale reconnect (behind the job) gets the progress snapshot
	// first, then the terminal status, with ids attached and increasing.
	events, ids := rawEvents(t, cl, st.ID, "0")
	if len(events) != 2 || events[0] != "progress" || events[1] != "status" {
		t.Fatalf("stale reconnect events = %v, want [progress status]", events)
	}
	if len(ids) != 2 {
		t.Fatalf("stale reconnect ids = %v, want two", ids)
	}
	snapSeq, err1 := strconv.ParseUint(ids[0], 10, 64)
	finalSeq, err2 := strconv.ParseUint(ids[1], 10, 64)
	if err1 != nil || err2 != nil || snapSeq >= finalSeq {
		t.Fatalf("stale reconnect ids = %v, want two increasing numbers", ids)
	}

	// A caught-up reconnect (Last-Event-ID at the snapshot) skips the
	// snapshot and gets only the status event.
	events, _ = rawEvents(t, cl, st.ID, ids[0])
	if len(events) != 1 || events[0] != "status" {
		t.Fatalf("caught-up reconnect events = %v, want [status]", events)
	}
}

// rawEvents reads one full SSE stream for a job, returning the event
// names and their id: lines in order.
func rawEvents(t *testing.T, cl *Client, id, lastEventID string) (events, ids []string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, cl.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var curID string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events = append(events, strings.TrimPrefix(line, "event: "))
		case strings.HasPrefix(line, "id: "):
			curID = strings.TrimPrefix(line, "id: ")
		case line == "":
			if curID != "" {
				ids = append(ids, curID)
				curID = ""
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events, ids
}

// waitState polls until the job reaches want (or any terminal state).
func waitState(t *testing.T, cl *Client, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want || st.State.Terminal() {
			if st.State != want {
				t.Fatalf("job %s reached %s, want %s", id, st.State, want)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestWaitDecodesLargeStatusEvent: the SSE reader starts with a small
// buffer, but a status event well past 64 KiB (a long failure message
// here) still decodes whole through Client.Wait.
func TestWaitDecodesLargeStatusEvent(t *testing.T) {
	msg := strings.Repeat("x", 100*1024)
	final, err := json.Marshal(Status{ID: "j1", Kind: "sweep", State: StateFailed, Error: msg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j1/events" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: progress\nid: 1\ndata: {\"done\":1}\n\n")
		fmt.Fprintf(w, "event: status\nid: 2\ndata: %s\n\n", final)
	}))
	defer hs.Close()

	var progress int
	st, err := NewClient(hs.URL, hs.Client()).Wait(context.Background(), "j1", 0, func(map[string]any) { progress++ })
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error != msg {
		t.Errorf("large status event decoded as state %s with a %d-byte error, want failed with %d bytes", st.State, len(st.Error), len(msg))
	}
	if progress != 1 {
		t.Errorf("saw %d progress events, want 1", progress)
	}
}
