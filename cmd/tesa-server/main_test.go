package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tesa/internal/jobspec"
	"tesa/internal/server"
)

// syncBuffer is a bytes.Buffer the server goroutine writes while the
// test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

var listening = regexp.MustCompile(`listening on (\S+)`)

// validationJob is a validation-space optimize spec at grid 16.
const validationJob = `{
  "version": "tesa.jobspec/v1",
  "kind": "optimize",
  "options": {"grid": 16},
  "constraints": {"fps": 15, "temp_c": 85},
  "space": {"preset": "validation"},
  "seed": 7
}`

// smallJob is a grid-8 job of the given kind over a small sub-space.
func smallJob(t *testing.T, kind string, seed int64) []byte {
	t.Helper()
	grid, fps, temp := 8, 15.0, 85.0
	spec := jobspec.Spec{
		Version:     jobspec.Version,
		Kind:        kind,
		Options:     &jobspec.Options{Grid: &grid},
		Constraints: &jobspec.Constraints{FPS: &fps, TempC: &temp},
		Space:       &jobspec.Space{ArrayDims: []int{200, 220, 240}, ICSUMs: []int{0, 500}},
		Seed:        &seed,
	}
	if kind == jobspec.KindPareto {
		spec.Pareto = &jobspec.Pareto{Points: 2}
	}
	raw, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestServeSmoke boots the server on loopback with a memo dir and live
// metrics, runs one validation-space job through the raw API and a few
// concurrent small jobs through server.Client while scraping /metrics,
// then cancels the run context, as SIGTERM does, and expects a clean
// drain that leaves the memo dir populated.
func TestServeSmoke(t *testing.T) {
	memoDir := filepath.Join(t.TempDir(), "memo")
	metricsAddr := freeAddr(t)
	var stdout, stderr syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "64",
			"-metrics-addr", metricsAddr, "-memo-dir", memoDir}, &stdout, &stderr)
	}()

	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(20 * time.Millisecond) {
		if m := listening.FindStringSubmatch(stdout.String()); m != nil {
			base = "http://" + m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server never listened; stderr:\n%s", stderr.String())
		}
	}
	cl := server.NewClient(base, nil)

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(validationJob))
	if err != nil {
		t.Fatal(err)
	}
	var st server.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, err)
	}
	done, err := cl.Wait(ctx, st.ID, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != server.StateDone || done.Result == nil || !done.Result.Found {
		t.Fatalf("validation job ended %s (%s)", done.State, done.Error)
	}

	kinds := []string{jobspec.KindOptimize, jobspec.KindSweep, jobspec.KindPareto, jobspec.KindOptimize}
	errs := make(chan error, len(kinds))
	for i, kind := range kinds {
		go func(raw []byte) {
			_, err := cl.Run(ctx, raw, nil)
			errs <- err
		}(smallJob(t, kind, int64(i+1)))
	}
	metrics := scrape(t, "http://"+metricsAddr+"/metrics")
	for range kinds {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for _, name := range []string{"tesa_serve_jobs_submitted", "tesa_serve_job_seconds"} {
		if !regexp.MustCompile(`(?m)^` + name).MatchString(metrics) {
			t.Errorf("/metrics has no %s sample:\n%s", name, metrics)
		}
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("drain exited %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain")
	}
	segs, err := os.ReadDir(memoDir)
	if err != nil || len(segs) == 0 {
		t.Errorf("memo dir not populated: %d entries (%v)", len(segs), err)
	}
}

// TestUsageErrorsExit2: flags the server does not have exit 2 before
// it listens. The context is already canceled, so a run that accepted
// them would drain at once and exit 0 instead.
func TestUsageErrorsExit2(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := map[string][]string{
		"removed distrib":            {"-distrib", "x.json"},
		"removed distrib checkpoint": {"-distrib-checkpoint", "x.ckpt"},
		"removed pprof":              {"-pprof", "x"},
	}
	for name, args := range cases {
		var stdout, stderr syncBuffer
		args = append([]string{"-addr", "127.0.0.1:0"}, args...)
		if code := run(ctx, args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2; stderr:\n%s", name, code, stderr.String())
		}
	}
}

// scrape fetches url's body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d (%v)", url, resp.StatusCode, err)
	}
	return string(body)
}
