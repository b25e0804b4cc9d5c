package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tesa"
	"tesa/internal/jobspec"
)

// tenantFlags collects repeated -tenant specs.
type tenantFlags []string

// String renders the accumulated specs for flag's usage output.
func (t *tenantFlags) String() string { return strings.Join(*t, " ") }

// Set appends one -tenant occurrence.
func (t *tenantFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

// parseTenant decodes one name:network:kind:rateRPS:slaSec spec.
func parseTenant(spec string) (tesa.Tenant, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 5 {
		return tesa.Tenant{}, fmt.Errorf("-tenant %q: want name:network:kind:rateRPS:slaSec", spec)
	}
	rate, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return tesa.Tenant{}, fmt.Errorf("-tenant %q: bad rate: %v", spec, err)
	}
	sla, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return tesa.Tenant{}, fmt.Errorf("-tenant %q: bad SLA: %v", spec, err)
	}
	return tesa.Tenant{
		Name:    parts[0],
		Network: parts[1],
		Arrival: tesa.ArrivalSpec{Kind: strings.ToLower(parts[2]), RateRPS: rate},
		SLASec:  sla,
	}, nil
}

// simCmd is `tesa sim`: one design point through a dynamic multi-tenant
// scenario, reporting SLA violations, throttling and the temperature
// envelope the steady-state evaluation cannot see.
func simCmd(c *command) func(ctx context.Context) error {
	f := c.jobFlags(30, 75, 88, false)
	dim := c.fs.Int("dim", 200, "systolic array dimension")
	ics := c.fs.Int("ics", 1700, "inter-chiplet spacing in micrometers")
	duration := c.fs.Float64("duration", 10, "simulated horizon in seconds")
	dt := c.fs.Float64("dt", 0.05, "thermal coupling tick in seconds")
	draws := c.fs.Int("draws", 1, "score the point over this many seeded scenario draws")
	trip := c.fs.Float64("trip", 0, "DVFS throttle trip point in Celsius (0 = the -temp budget)")
	var tenants tenantFlags
	c.fs.Var(&tenants, "tenant", "add a traffic source: name:network:kind:rateRPS:slaSec (repeatable)")
	c.operational(false)
	events := c.fs.String("events", "", "write the simulation event log as JSONL to this file")
	jsonOut := c.fs.Bool("json", false, "print the full wire-form result as JSON")

	return func(ctx context.Context) error {
		r, err := c.resolve(func() (*jobspec.Spec, error) {
			if len(tenants) == 0 {
				return nil, errors.New("no traffic: give at least one -tenant name:network:kind:rateRPS:slaSec (or -job)")
			}
			s := f.spec(jobspec.KindSim)
			s.Sim = &jobspec.Sim{ArrayDim: *dim, ICSUM: *ics, DurationSec: *duration, ThermalDtSec: *dt, Draws: *draws}
			if *trip != 0 {
				s.Sim.Throttle = &tesa.Throttle{TripC: *trip}
			}
			for _, spec := range tenants {
				t, err := parseTenant(spec)
				if err != nil {
					return nil, err
				}
				s.Sim.Tenants = append(s.Sim.Tenants, t)
			}
			return s, nil
		})
		if err != nil {
			return err
		}
		if err := c.start(r); err != nil {
			return err
		}
		rt := c.runtime()
		var log *os.File
		if *events != "" {
			if log, err = os.Create(*events); err != nil {
				return err
			}
			rt.Events = log
		}
		out, err := c.execute(ctx, r, rt)
		if log != nil {
			if cerr := log.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
		full, base, score := out.Point, out.Base, out.Score
		if !full.Fits {
			fmt.Fprintf(c.stdout, "%v does not fit the %.0f mm interposer\n", full.Point, r.Cons.InterposerMM)
			return &exitError{3, "no-fit"}
		}
		res := out.Result()
		if *jsonOut {
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(c.stdout, string(data))
			return nil
		}

		sc := r.Scenario
		p := func(format string, args ...any) { fmt.Fprintf(c.stdout, format, args...) }
		p("%v: %v grid, static peak %.2f C, static objective %.4g\n",
			full.Point, full.Mesh, full.PeakTempC, full.Objective)
		p("scenario: seed %d, %.3g s horizon, %d tenants, dt %.3g s, throttle trips at %.1f C\n",
			sc.Seed, sc.DurationSec, len(sc.Tenants), sc.ThermalDtSec, sc.Throttle.TripC)
		p("dynamic: %d requests, %d completed, %d SLA violations, %d throttle events (%.3g s throttled, min freq x%.2f), peak %.2f C\n",
			base.Requests, base.Completed, base.SLAViolations, base.ThrottleEvents,
			base.ThrottledSec, base.MinFreqFactor, base.PeakTempC)
		for _, ts := range base.Tenants {
			p("  tenant %-12s %5d req  %5d done  %4d over SLA  p50 %.4g ms  p95 %.4g ms  p99 %.4g ms\n",
				ts.Name, ts.Requests, ts.Completed, ts.SLAViolations,
				ts.P50Sec*1e3, ts.P95Sec*1e3, ts.P99Sec*1e3)
		}
		if r.SimDraws > 1 {
			p("distribution (%d draws): mean SLA rate %.3g (max %.3g), mean throttled frac %.3g, peak %.2f C (max %.2f C)\n",
				score.Draws, score.MeanSLARate, score.MaxSLARate, score.MeanThrottledFrac,
				score.MeanPeakC, score.MaxPeakC)
		}
		p("combined objective %.4g (static %.4g, dynamic penalty %.3g)\n",
			res.Sim.CombinedObjective, res.Sim.StaticObjective, score.DynamicPenalty())
		if *events != "" {
			p("wrote %s\n", *events)
		}
		return nil
	}
}
