package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer the coordinator goroutine writes while
// the test reads it.
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

// dsweepSpec is the 25-point sweep the distributed chaos test shards
// two points at a time.
const dsweepSpec = `{
  "version": "tesa.jobspec/v1",
  "kind": "sweep",
  "options": {"grid": 16},
  "sweep": {"shard_size": 2},
  "constraints": {"fps": 15, "temp_c": 85},
  "space": {
    "array_dims": [160, 180, 200, 220, 240],
    "ics_ums": [0, 250, 500, 750, 1000]
  },
  "seed": 7
}`

// coordAddr matches the address on the coordinator's listening line.
var coordAddr = regexp.MustCompile(`coordinator: serving \d+ shards on (\S+) `)

// globalOptimum matches the "global optimum:" line of a sweep report.
var globalOptimum = regexp.MustCompile(`global optimum: .*`)

// TestDistributedChaos runs a distributed sweep in-process on a free
// loopback port: a worker that crashes mid-sweep (its leases must be
// stolen), a worker that fabricates every result (verification must
// quarantine it, exit 4, and roll its records back) and an honest
// worker that finishes the sweep. The coordinator exits 0 and names the
// liar, and its merged ledger is byte-compatible with single-process
// checkpoints: a local -resume gets full credit and reports the same
// global optimum.
func TestDistributedChaos(t *testing.T) {
	t.Setenv("TESA_FAULTS", "")
	dir := t.TempDir()
	spec := filepath.Join(dir, "dsweep.json")
	if err := os.WriteFile(spec, []byte(dsweepSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(dir, "dledger.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	var coordOut, coordErr syncBuffer
	coordCode, coordDone := 0, make(chan struct{})
	go func() {
		coordCode = run(ctx, []string{"sweep", "-coordinate", "127.0.0.1:0", "-job", spec,
			"-lease-ttl", "2s", "-verify-frac", "0.25", "-checkpoint", ledger}, &coordOut, &coordErr)
		close(coordDone)
	}()
	t.Cleanup(func() {
		cancel()
		<-coordDone
	})
	var url string
	for deadline := time.Now().Add(10 * time.Second); url == "" && time.Now().Before(deadline); {
		if m := coordAddr.FindStringSubmatch(coordOut.String()); m != nil {
			url = "http://" + m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if url == "" {
		t.Fatalf("coordinator never listened; stdout:\n%s\nstderr:\n%s", coordOut.String(), coordErr.String())
	}

	// The crasher's exit code is not part of the contract; its stolen
	// leases are what the honest worker must finish.
	code, _, _ := runTesa(t, "sweep", "-worker", url, "-worker-name", "crasher", "-faults", "crash@shard:shard=2-2")
	t.Logf("crasher exited %d", code)
	if code, stdout, stderr := runTesa(t, "sweep", "-worker", url, "-worker-name", "liar", "-faults", "lie@shard"); code != 4 {
		t.Fatalf("liar exited %d, want 4; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if code, stdout, stderr := runTesa(t, "sweep", "-worker", url, "-worker-name", "honest"); code != 0 {
		t.Fatalf("honest worker exited %d; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	select {
	case <-coordDone:
		if coordCode != 0 {
			t.Fatalf("coordinator exited %d; stdout:\n%s\nstderr:\n%s", coordCode, coordOut.String(), coordErr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator still running after the honest worker finished; stdout:\n%s", coordOut.String())
	}
	dist := coordOut.String()
	if !strings.Contains(dist, "quarantined workers: liar") {
		t.Errorf("coordinator did not quarantine the liar:\n%s", dist)
	}

	code, local, stderr := runTesa(t, "sweep", "-job", spec, "-resume", ledger)
	if code != 0 {
		t.Fatalf("local resume exited %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(local, "0 points evaluated, 25 resumed") {
		t.Errorf("local resume did not credit every point:\n%s", local)
	}
	d, l := globalOptimum.FindString(dist), globalOptimum.FindString(local)
	if d == "" || d != l {
		t.Errorf("distributed run reported %q, local resume %q", d, l)
	}
	t.Logf("both report %s", d)
}
