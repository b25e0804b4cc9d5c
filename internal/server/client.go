package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"tesa/internal/jobspec"
)

// Retry policy: transient rejections (429 queue-full, 503 draining) and
// — on idempotent requests only — transport errors are retried with
// jittered exponential backoff under a fixed attempt budget. Submission
// never retries a transport error: the request may have reached the
// server, and a blind resend would duplicate the job.
const (
	retryAttempts = 4
	retryBase     = 100 * time.Millisecond
	retryCap      = 2 * time.Second
)

// Client is a minimal tesa-server API client over net/http. The zero
// value is not usable; construct with NewClient.
type Client struct {
	base string
	http *http.Client
}

// backoff returns the sleep before retry attempt n (0-based): an
// exponential ramp from retryBase capped at retryCap, with the upper
// half jittered so synchronized clients don't re-stampede the server.
func backoff(n int) time.Duration {
	d := retryBase << n
	if d > retryCap {
		d = retryCap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// sleepCtx pauses for d unless ctx expires first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080"). A nil httpClient uses a dedicated default
// with no overall timeout — job streams are long-lived by design.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient}
}

// Submit posts a raw jobspec document and returns the accepted job's
// status (its ID field names the job from here on). Transient server
// rejections (429, 503) are retried under the backoff budget; transport
// errors are not, to never submit the same job twice.
func (c *Client) Submit(ctx context.Context, spec []byte) (*Status, error) {
	var st Status
	if err := c.doRetry(ctx, http.MethodPost, c.base+"/v1/jobs", spec, http.StatusAccepted, &st, false); err != nil {
		return nil, err
	}
	return &st, nil
}

// SubmitSpec marshals and posts a parsed spec.
func (c *Client) SubmitSpec(ctx context.Context, spec *jobspec.Spec) (*Status, error) {
	raw, err := spec.Marshal()
	if err != nil {
		return nil, err
	}
	return c.Submit(ctx, raw)
}

// Status fetches one job's current status. Idempotent, so transport
// errors retry too — a server blip doesn't fail the poll loop.
func (c *Client) Status(ctx context.Context, id string) (*Status, error) {
	var st Status
	if err := c.doRetry(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil, http.StatusOK, &st, true); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel asks the server to stop a job. Cancellation is idempotent on
// the server, so transport errors retry.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.doRetry(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil, http.StatusOK, nil, true)
}

// Health fetches /healthz (liveness: 200 whenever the process serves,
// draining included). The decoded body carries the drain state and pool
// tallies; transport failures are real errors.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	return c.getBody(ctx, "/healthz")
}

// Ready fetches /readyz. It returns the decoded body and a nil error
// even when the server reports not-ready (503) — the caller inspects
// the "ready" field; transport failures are real errors.
func (c *Client) Ready(ctx context.Context) (map[string]any, error) {
	return c.getBody(ctx, "/readyz")
}

// getBody fetches path and decodes its JSON body regardless of status.
func (c *Client) getBody(ctx context.Context, path string) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode %s: %w", path, err)
	}
	return out, nil
}

// Wait blocks until the job reaches a terminal state and returns its
// final status. It prefers the SSE events stream (onProgress, when
// non-nil, receives each update) and reconnects with the Last-Event-ID
// of the final frame it saw when the stream drops mid-job, so a
// server blip costs a resume, not a restart. Only after the retry
// budget is spent does it fall back to polling every pollEvery
// (0 = 250ms).
func (c *Client) Wait(ctx context.Context, id string, pollEvery time.Duration, onProgress func(map[string]any)) (*Status, error) {
	var lastID string
	for attempt := 0; attempt < retryAttempts; attempt++ {
		st, err := c.waitEvents(ctx, id, &lastID, onProgress)
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err := sleepCtx(ctx, backoff(attempt)); err != nil {
			return nil, err
		}
	}
	if pollEvery <= 0 {
		pollEvery = 250 * time.Millisecond
	}
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if onProgress != nil && st.Progress != nil {
			onProgress(st.Progress)
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// waitEvents consumes the SSE stream until the terminal status event,
// tracking the server's id: lines in lastID so a reconnect can tell the
// server what it has already seen.
func (c *Client) waitEvents(ctx context.Context, id string, lastID *string, onProgress func(map[string]any)) (*Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	// Most events are a few hundred bytes; the scanner grows the buffer
	// on demand up to the 1 MiB cap for a large status event.
	sc.Buffer(make([]byte, 0, 4*1024), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			*lastID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				if onProgress != nil {
					var f map[string]any
					if json.Unmarshal([]byte(data), &f) == nil {
						onProgress(f)
					}
				}
			case "status":
				var st Status
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					return nil, fmt.Errorf("client: decode status event: %w", err)
				}
				return &st, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// Run submits a spec and waits for its result in one call. A failed or
// canceled job surfaces as an error carrying the server's message.
func (c *Client) Run(ctx context.Context, spec []byte, onProgress func(map[string]any)) (*jobspec.Result, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	st, err = c.Wait(ctx, st.ID, 0, onProgress)
	if err != nil {
		return nil, err
	}
	if st.State != StateDone {
		return nil, fmt.Errorf("client: job %s %s: %s", st.ID, st.State, st.Error)
	}
	return st.Result, nil
}

// doRetry issues the request up to retryAttempts times, rebuilding it
// per attempt so the body can be resent. 429 and 503 are always
// retried; transport errors only when retryTransport is set (GET and
// DELETE — never POST, which may already have reached the server). A
// response with the wanted status decodes into out (skipped when nil);
// other statuses decode the error envelope.
func (c *Client) doRetry(ctx context.Context, method, url string, body []byte, want int, out any, retryTransport bool) error {
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoff(attempt-1)); err != nil {
				return fmt.Errorf("%w (after: %v)", err, lastErr)
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		if err != nil {
			if !retryTransport || ctx.Err() != nil {
				return err
			}
			lastErr = err
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		if err != nil {
			if !retryTransport || ctx.Err() != nil {
				return err
			}
			lastErr = err
			continue
		}
		if resp.StatusCode == want {
			if out == nil {
				return nil
			}
			return json.Unmarshal(respBody, out)
		}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(respBody, &e) == nil && e.Error != "" {
			err = fmt.Errorf("client: %s: %s", resp.Status, e.Error)
		} else {
			err = fmt.Errorf("client: %s", resp.Status)
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			lastErr = err
			continue
		}
		return err
	}
	return lastErr
}
