package telemetry

import (
	"context"
	"fmt"
	"os"
	"time"
)

// drainGrace bounds how long Setup's cleanup waits for in-flight
// exposition requests before the process moves on with its exit.
const drainGrace = 2 * time.Second

// Setup wires the standard CLI observability flags:
//
//	-trace out.jsonl    tracePath:   JSONL event trace (""=off)
//	-metrics            metrics:     collect + print the summary table
//	-metrics-addr addr  metricsAddr: serve /metrics, /debug/vars,
//	                    /progress and /debug/pprof (""=off)
//
// It returns the hub (nil when nothing asked for telemetry, preserving
// the disabled fast path — note -metrics-addr implies a live registry),
// the exposition server (nil unless metricsAddr was given), and a
// cleanup that flushes and closes the trace file and shuts the server
// down. The listener binds synchronously — a bad address fails here,
// not in a goroutine.
func Setup(tracePath, metricsAddr string, metrics bool) (*Telemetry, *Server, func() error, error) {
	cleanup := func() error { return nil }
	var sink EventSink
	var closeTrace func() error
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, nil, cleanup, fmt.Errorf("telemetry: trace: %w", err)
		}
		js := NewJSONLSink(f)
		sink = js
		closeTrace = func() error {
			if err := js.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	if sink == nil && !metrics && metricsAddr == "" {
		return nil, nil, cleanup, nil
	}
	tel := New(sink)
	var srv *Server
	if metricsAddr != "" {
		var err error
		srv, err = Serve(metricsAddr, tel)
		if err != nil {
			if closeTrace != nil {
				_ = closeTrace()
			}
			return nil, nil, cleanup, err
		}
		fmt.Fprintf(os.Stderr, "metrics: serving on http://%s/metrics\n", srv.Addr())
	}
	cleanup = func() error {
		// Drain rather than Close: a scrape racing process exit gets its
		// response instead of a reset. The bound keeps a wedged client
		// from holding the process hostage; Drain and Close share one
		// sync.Once, so a caller that already Closed wins harmlessly.
		ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
		defer cancel()
		err := srv.Drain(ctx)
		if closeTrace != nil {
			if terr := closeTrace(); err == nil {
				err = terr
			}
		}
		return err
	}
	return tel, srv, cleanup, nil
}
