package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"tesa/internal/core"
	"tesa/internal/faults"
	"tesa/internal/jobspec"
	"tesa/internal/memo"
	"tesa/internal/telemetry"
)

// ErrWorkerCrashed is the error RunWorker returns when an injected
// crash@shard fault fires: the worker abandons its leases and exits
// without reporting, exactly like a killed process.
var ErrWorkerCrashed = errors.New("distrib: injected worker crash")

// WorkerConfig configures one sweep worker.
type WorkerConfig struct {
	// Coord is the coordinator's base URL — the mount point of its
	// Handler (e.g. http://host:9090/v1/distrib behind tesa-server, or
	// the bare address of a tesa sweep -coordinate process).
	Coord string
	// Name identifies the worker to the coordinator; "" generates one.
	Name string
	// Client is the HTTP client ( nil = http.DefaultClient).
	Client *http.Client
	// Store is the worker's local memo store. Optional.
	Store *memo.Store
	// Tel is the worker's observability hub. Optional.
	Tel *telemetry.Telemetry
	// Faults is the worker's fault plan. Its shard-stage rules
	// (crash/stall/lie) drive the worker loop itself; any pipeline
	// rules are injected into the evaluator alongside the spec's own.
	Faults *faults.Plan
	// Logf receives worker lifecycle lines. Optional.
	Logf func(format string, args ...any)
}

// WorkerStats summarizes one worker's run.
type WorkerStats struct {
	// Name is the worker's (possibly generated) identity.
	Name string
	// Shards and Points count reported work; Stale counts reports for
	// shards the coordinator had already merged (stolen leases).
	Shards, Points, Stale int
	// Crashes, Stalls, and Lies count injected worker faults fired.
	Crashes, Stalls, Lies int
}

// RunWorker joins the coordinator, leases shards, executes them with
// the evaluator the spec resolves to, and reports records until the
// sweep completes. It returns ErrWorkerQuarantined if the coordinator
// refutes one of its reports, ErrWorkerCrashed on an injected crash,
// and ctx's error on cancellation.
func RunWorker(ctx context.Context, cfg WorkerConfig) (*WorkerStats, error) {
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Name == "" {
		cfg.Name = "w-" + telemetry.NewRunID()[:8]
	}
	stats := &WorkerStats{Name: cfg.Name}
	base := strings.TrimRight(cfg.Coord, "/")
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var info InfoResponse
	if err := getJSON(ctx, cfg.Client, base+"/info", &info); err != nil {
		return stats, fmt.Errorf("distrib: worker: %w", err)
	}
	specData, err := getRaw(ctx, cfg.Client, base+"/spec")
	if err != nil {
		return stats, fmt.Errorf("distrib: worker: %w", err)
	}
	spec, err := jobspec.Parse(specData)
	if err != nil {
		return stats, fmt.Errorf("distrib: worker: coordinator spec: %w", err)
	}
	r, err := spec.Resolve("")
	if err != nil {
		return stats, fmt.Errorf("distrib: worker: coordinator spec: %w", err)
	}
	// The fingerprint binds both sides to one canonical enumeration: a
	// worker whose resolution disagrees must not execute anything.
	if got := r.Space.Fingerprint(); got != info.Fingerprint {
		return stats, fmt.Errorf("distrib: worker: space fingerprint %s does not match coordinator %s", got, info.Fingerprint)
	}
	pts := r.Space.Enumerate()
	if len(pts) != info.Total || info.ShardSize <= 0 || info.Shards != (len(pts)+info.ShardSize-1)/info.ShardSize {
		return stats, fmt.Errorf("distrib: worker: decomposition %d/%d/%d does not cover %d points",
			info.Total, info.ShardSize, info.Shards, len(pts))
	}

	shardPlan, extraPipeline := cfg.Faults.SplitWorker()
	r.FaultPlan = mergePlans(r.FaultPlan, extraPipeline)
	eval, err := jobspec.NewEvaluator(r, jobspec.Runtime{Store: cfg.Store, Tel: cfg.Tel})
	if err != nil {
		return stats, fmt.Errorf("distrib: worker: %w", err)
	}

	// Heartbeat in the background so leases survive shards that
	// evaluate longer than the TTL. An injected stall suppresses the
	// heartbeats — that is precisely what makes the worker a straggler
	// whose lease gets stolen.
	ttl := time.Duration(info.LeaseTTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	var stalling atomic.Bool
	hbCtx, hbStop := context.WithCancel(ctx)
	defer hbStop()
	go func() {
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if stalling.Load() {
					continue
				}
				var hb HeartbeatResponse
				_ = postJSON(hbCtx, cfg.Client, base+"/heartbeat", workerRequest{Worker: cfg.Name}, &hb)
			}
		}
	}()

	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		var grant LeaseResponse
		if err := postJSON(ctx, cfg.Client, base+"/lease", workerRequest{Worker: cfg.Name}, &grant); err != nil {
			return stats, fmt.Errorf("distrib: worker: %w", err)
		}
		switch {
		case grant.Quarantined != "":
			return stats, fmt.Errorf("%w: %s", ErrWorkerQuarantined, grant.Quarantined)
		case grant.Done:
			return stats, nil
		case len(grant.Shards) == 0:
			wait := time.Duration(grant.WaitMS) * time.Millisecond
			if wait <= 0 {
				wait = 50 * time.Millisecond
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return stats, err
			}
			continue
		}
		for _, idx := range grant.Shards {
			outcome := shardPlan.AtShard(idx)
			if outcome != nil && outcome.Crash {
				stats.Crashes++
				logf("worker %s: injected crash at shard %d", cfg.Name, idx)
				return stats, ErrWorkerCrashed
			}
			if outcome != nil && outcome.Stall {
				stats.Stalls++
				logf("worker %s: injected stall at shard %d for %s", cfg.Name, idx, outcome.StallFor)
				stalling.Store(true)
				err := sleepCtx(ctx, outcome.StallFor)
				stalling.Store(false)
				if err != nil {
					return stats, err
				}
			}
			cp, poisons, err := eval.SweepShard(ctx, pts, idx, info.ShardSize)
			if err != nil {
				return stats, fmt.Errorf("distrib: worker: shard %d: %w", idx, err)
			}
			if outcome != nil && outcome.Lie {
				stats.Lies++
				cp = corruptRecord(cp, pts, idx, info.ShardSize)
				logf("worker %s: injected lie at shard %d (claiming obj %g)", cfg.Name, idx, cp.BestObj)
			}
			req := ReportRequest{
				Worker:   cfg.Name,
				Shard:    cp.Shard,
				Feasible: cp.Feasible,
				Found:    cp.Found,
			}
			if cp.Found {
				req.BestDim, req.BestICS, req.BestObj = cp.Best.ArrayDim, cp.Best.ICSUM, cp.BestObj
			}
			for _, q := range poisons {
				req.Poisoned = append(req.Poisoned, ReportPoison{
					Dim: q.Point.ArrayDim, ICS: q.Point.ICSUM, Stage: q.Stage, Reason: q.Reason,
				})
			}
			var resp ReportResponse
			if err := postJSON(ctx, cfg.Client, base+"/report", req, &resp); err != nil {
				return stats, fmt.Errorf("distrib: worker: %w", err)
			}
			if resp.Quarantined != "" {
				return stats, fmt.Errorf("%w: %s", ErrWorkerQuarantined, resp.Quarantined)
			}
			if resp.Err != "" {
				return stats, fmt.Errorf("distrib: worker: report rejected: %s", resp.Err)
			}
			if resp.Stale {
				stats.Stale++
			}
			stats.Shards++
			stats.Points += shardSpan(idx, info.ShardSize, len(pts))
			if resp.Done {
				// This report completed the sweep; the coordinator may
				// exit before another lease round-trip would land.
				return stats, nil
			}
		}
	}
}

// corruptRecord is the lie@shard payload: the record claims a
// better-than-anything winner, which forces the coordinator's
// incumbent-improvement verification — a lie that could steer the
// sweep's winner is exactly the lie that is always re-checked.
func corruptRecord(cp core.ShardCheckpoint, pts []core.DesignPoint, idx, size int) core.ShardCheckpoint {
	if cp.Found {
		cp.BestObj = -math.Abs(cp.BestObj) - 1e9
	} else {
		cp.Found = true
		cp.Best = pts[idx*size]
		cp.BestObj = -1e9
		cp.Feasible = 1
	}
	return cp
}

// mergePlans concatenates two fault plans, preserving the nil fast
// path.
func mergePlans(a, b *faults.Plan) *faults.Plan {
	if a == nil || len(a.Rules) == 0 {
		return b
	}
	if b == nil || len(b.Rules) == 0 {
		return a
	}
	rules := make([]faults.Rule, 0, len(a.Rules)+len(b.Rules))
	rules = append(rules, a.Rules...)
	rules = append(rules, b.Rules...)
	return &faults.Plan{Rules: rules}
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// getRaw fetches a URL body with retries on transient failures.
func getRaw(ctx context.Context, cl *http.Client, url string) ([]byte, error) {
	var body []byte
	err := withRetries(ctx, func() (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return 0, err
		}
		resp, err := cl.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, err
		}
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, fmt.Errorf("GET %s: %s: %s", url, resp.Status, truncate(body))
		}
		return resp.StatusCode, nil
	})
	return body, err
}

// getJSON fetches and decodes a JSON document.
func getJSON(ctx context.Context, cl *http.Client, url string, dst any) error {
	body, err := getRaw(ctx, cl, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, dst)
}

// postJSON posts a JSON document and decodes the JSON response,
// retrying transient failures. 4xx responses are terminal: the
// protocol handlers answer protocol-level refusals (quarantine, done)
// inside 200 bodies, so a 4xx means a malformed request.
func postJSON(ctx context.Context, cl *http.Client, url string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return withRetries(ctx, func() (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := cl.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, err
		}
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, fmt.Errorf("POST %s: %s: %s", url, resp.Status, truncate(body))
		}
		return resp.StatusCode, json.Unmarshal(body, out)
	})
}

// withRetries runs fn up to four times with doubling backoff, retrying
// transport errors and 5xx responses — a coordinator blip (restart,
// overload) should cost a worker a moment, not its run.
func withRetries(ctx context.Context, fn func() (int, error)) error {
	var err error
	backoff := 50 * time.Millisecond
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			if serr := sleepCtx(ctx, backoff); serr != nil {
				return serr
			}
			backoff *= 2
		}
		var status int
		status, err = fn()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if status >= 400 && status < 500 {
			return err
		}
	}
	return err
}

// truncate bounds an error-body excerpt.
func truncate(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
