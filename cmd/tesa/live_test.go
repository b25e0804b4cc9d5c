package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer a run goroutine writes while the test
// reads it.
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

// get fetches url's body; a failed request or a non-200 status is an
// error.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, err
}

var (
	// metricType and metricSample are the two line shapes of the
	// Prometheus text exposition.
	metricType   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary)$`)
	metricSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// TestLiveExposition scrapes /metrics, /progress and /debug/vars of a
// sweep while it runs. A latency fault on one design point's thermal
// stage keeps the sweep alive long enough to be scraped; the run must
// still complete cleanly (exit 0, or 4 with quarantined points).
func TestLiveExposition(t *testing.T) {
	t.Setenv("TESA_FAULTS", "")
	addr, dir := freeAddr(t), t.TempDir()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(context.Background(), []string{"sweep", "-grid", "8", "-metrics-addr", addr,
			"-faults", "latency@thermal:dim=128,ics=1000,delay=500ms",
			"-manifest", filepath.Join(dir, "run.jsonl"), "-trace", filepath.Join(dir, "trace.jsonl")},
			&stdout, &stderr)
	}()

	// Poll /progress until the sweep has published a phase with a
	// total; the exposition server is up from then on until the run
	// ends.
	base := "http://" + addr
	var prog struct {
		Phase string `json:"phase"`
		Done  int    `json:"done"`
		Total int    `json:"total"`
	}
	for deadline := time.Now().Add(20 * time.Second); prog.Phase == "" || prog.Total <= 0; time.Sleep(10 * time.Millisecond) {
		select {
		case code := <-exit:
			t.Fatalf("sweep exited %d before /progress showed a phase; stderr:\n%s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("/progress never showed a phase and total; last %+v", prog)
		}
		if body, err := get(base + "/progress"); err == nil {
			if err := json.Unmarshal(body, &prog); err != nil {
				t.Fatalf("/progress is not JSON: %v\n%s", err, body)
			}
		}
	}
	metrics, err := get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	vars, err := get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}

	select {
	case code := <-exit:
		if code != 0 && code != 4 {
			t.Fatalf("sweep exited %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sweep did not finish")
	}

	samples := 0
	for _, l := range strings.Split(string(metrics), "\n") {
		switch {
		case l == "":
		case strings.HasPrefix(l, "# TYPE "):
			if !metricType.MatchString(l) {
				t.Errorf("malformed TYPE line: %q", l)
			}
		default:
			m := metricSample.FindStringSubmatch(l)
			if m == nil {
				t.Errorf("malformed sample: %q", l)
				continue
			}
			if v, err := strconv.ParseFloat(m[3], 64); err != nil || math.IsNaN(v) {
				t.Errorf("sample value is not a number: %q", l)
			}
			if !strings.HasPrefix(m[1], "tesa_") {
				t.Errorf("sample outside the tesa_ namespace: %q", l)
			}
			samples++
		}
	}
	if samples == 0 {
		t.Errorf("no samples in /metrics:\n%s", metrics)
	}
	var v map[string]json.RawMessage
	if err := json.Unmarshal(vars, &v); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, key := range []string{"metrics", "manifest"} {
		if v[key] == nil {
			t.Errorf("/debug/vars lacks %q: has %d keys", key, len(v))
		}
	}
	t.Logf("%d well-formed samples; progress at %d/%d in phase %s", samples, prog.Done, prog.Total, prog.Phase)
}
