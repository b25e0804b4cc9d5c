package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tesa/internal/jobspec"
	"tesa/internal/memo"
	"tesa/internal/server"
	"tesa/internal/telemetry"
)

// Names of the benchmark's own spans around the public calls it makes.
const (
	spanParseResolve = "bench.jobspec.parse_resolve"
	spanRun          = "bench.jobspec.run"
	spanServerNew    = "bench.server.new"
	spanSubmit       = "bench.client.submit"
	spanWait         = "bench.client.wait"
)

// job is one generated spec: the document a round submits and its
// resolved form, which the checks read.
type job struct {
	raw      []byte
	resolved *jobspec.Resolved
}

// jobRecord is the outcome of one job in a round.
type jobRecord struct {
	// latency runs from the call that starts the job to its result:
	// jobspec.Run's return, or a served job's terminal SSE status.
	latency time.Duration
	// err is nil when the job finished and its result passed every check.
	err    error
	result *jobspec.Result
	// status carries a served job's lifecycle timestamps.
	status *server.Status
}

// env is the state one set-up builds: everything a round needs before
// its first timed job. A round runs the whole job list once.
type env interface {
	round(ctx context.Context, check func(*job, *jobspec.Result) error) []jobRecord
	close() error
	store() *memo.Store
}

// setUp parses and resolves every spec and builds the round's state
// (memo store, or server, listener and client), returning once the first
// job could start.
func setUp(w *workload, raws [][]byte, nproc int, tel *telemetry.Telemetry) (env, error) {
	jobs := make([]*job, len(raws))
	for i, raw := range raws {
		sp := tel.StartSpan(spanParseResolve)
		spec, err := jobspec.Parse(raw)
		if err != nil {
			return nil, err
		}
		r, err := spec.Resolve("")
		sp.End()
		if err != nil {
			return nil, err
		}
		jobs[i] = &job{raw: raw, resolved: r}
	}
	if w.served {
		return newServedEnv(jobs, nproc, tel)
	}
	rt := jobspec.Runtime{Tel: tel}
	if w.memo {
		rt.Store = memo.NewStore()
		rt.Parallel = nproc
	}
	for _, j := range jobs {
		// Fails here, not mid-round, when a spec cannot build its evaluator.
		if _, err := jobspec.NewEvaluator(j.resolved, rt); err != nil {
			return nil, err
		}
	}
	return &directEnv{jobs: jobs, rt: rt}, nil
}

// directEnv runs each job with jobspec.Run, one after another.
type directEnv struct {
	jobs []*job
	rt   jobspec.Runtime
}

func (e *directEnv) round(ctx context.Context, check func(*job, *jobspec.Result) error) []jobRecord {
	out := make([]jobRecord, len(e.jobs))
	for i, j := range e.jobs {
		t0 := time.Now()
		sp := e.rt.Tel.StartSpan(spanRun)
		res, err := jobspec.Run(ctx, j.resolved, e.rt)
		sp.End()
		out[i] = jobRecord{latency: time.Since(t0), result: res, err: err}
		if err == nil {
			out[i].err = check(j, res)
		}
	}
	return out
}

func (e *directEnv) close() error       { return nil }
func (e *directEnv) store() *memo.Store { return e.rt.Store }

// servedParallel is the annealer worker bound of each served job.
const servedParallel = 1

// servedEnv is an in-process tesa-server on a loopback listener with
// nproc workers and a shared memo store, and the client that drives it.
type servedEnv struct {
	jobs   []*job
	nproc  int
	tel    *telemetry.Telemetry
	memo   *memo.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	hc     *http.Client
	client *server.Client
}

func newServedEnv(jobs []*job, nproc int, tel *telemetry.Telemetry) (*servedEnv, error) {
	e := &servedEnv{jobs: jobs, nproc: nproc, tel: tel, memo: memo.NewStore()}
	sp := tel.StartSpan(spanServerNew)
	e.srv = server.New(server.Config{
		Workers:  nproc,
		Queue:    len(jobs),
		Store:    e.memo,
		Tel:      tel,
		Parallel: servedParallel,
	})
	sp.End()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = e.srv.Drain(context.Background()) // no job ran; the listen error is the one to report
		return nil, err
	}
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * nproc}}
	e.client = server.NewClient("http://"+ln.Addr().String(), e.hc)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		body, err := e.client.Ready(ctx)
		if err == nil && body["ready"] == true {
			return e, nil
		}
		if ctx.Err() != nil {
			_ = e.close() // the readiness failure is the one to report
			return nil, fmt.Errorf("server never became ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// round runs nproc closed-loop clients: each submits the next job of the
// list, waits for its terminal status over SSE, and only then submits
// another.
func (e *servedEnv) round(ctx context.Context, check func(*job, *jobspec.Result) error) []jobRecord {
	out := make([]jobRecord, len(e.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(e.jobs) {
					return
				}
				out[i] = e.serve(ctx, e.jobs[i], check)
			}
		}()
	}
	wg.Wait()
	return out
}

// serve submits one job and waits for its terminal status.
func (e *servedEnv) serve(ctx context.Context, j *job, check func(*job, *jobspec.Result) error) jobRecord {
	t0 := time.Now()
	sp := e.tel.StartSpan(spanSubmit)
	st, err := e.client.Submit(ctx, j.raw)
	sp.End()
	if err != nil {
		return jobRecord{latency: time.Since(t0), err: err}
	}
	sp = e.tel.StartSpan(spanWait)
	st, err = e.client.Wait(ctx, st.ID, 0, nil)
	sp.End()
	rec := jobRecord{latency: time.Since(t0), status: st, err: err}
	switch {
	case err != nil:
	case st.State != server.StateDone:
		rec.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	default:
		rec.result = st.Result
		rec.err = check(j, st.Result)
	}
	return rec
}

// close drains the server, shuts the listener down and waits for the
// serving goroutine to return.
func (e *servedEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Drain(ctx)
	e.hc.CloseIdleConnections()
	if serr := e.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (e *servedEnv) store() *memo.Store { return e.memo }
