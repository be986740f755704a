package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gpupower/internal/core"
	"gpupower/internal/fleet"
	"gpupower/internal/stats"
)

// fleetMembers is the fit-fleet size: three dies of each catalog device,
// like the fleet_fit row of BENCH_results.json.
const fleetMembers = 9

// fleetSpecs draws the fit-fleet members for a seed: round-robin over the
// catalog, with dies no other seed uses.
func fleetSpecs(seed uint64) []fleet.Spec {
	return fleet.Registry(fleetMembers, 1000+fleetMembers*seed)
}

// runFitFleet: datasets for a nine-member fleet are set-up; the timed work
// is the concurrent fleet fit (fleet.FitDatasets), repeated; the models
// are then scored against the simulator's hidden truth on held-out apps.
func runFitFleet(ctx context.Context, cfg *config) (*outcome, error) {
	o := newOutcome()
	specs := fleetSpecs(cfg.seed)
	var setups []float64
	var f *fittedFleet
	for r := 0; r < setupReps; r++ {
		ff, wall, err := buildDatasets(ctx, specs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, wall.Seconds())
		f = ff
	}
	o.e2e.set("setup_s", "s", stats.Median(setups))

	// A traced run alternates untraced and traced fits, so both see the
	// same machine; the metrics below come from the untraced ones.
	tracers := []*tracer{nil}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		tracers = append(tracers, tr)
	}
	runs, err := repeatFits(ctx, f, cfg.span(1), tracers, o)
	if err != nil {
		return nil, err
	}
	fits := runs[0]
	walls := fits.wallsS()
	fitS := stats.Median(walls)
	o.e2e.set("fit_s", "s", fitS)
	o.e2e.set("p50_ms", "ms", percentile(fits.memberMs, 50))
	o.e2e.set("server_cpu_ms_per_req", "ms", float64(fits.cpu)/float64(time.Millisecond)/float64(len(walls)*len(specs)))
	var iterations int
	for _, m := range f.models {
		iterations += m.Iterations
	}
	fmt.Fprintf(os.Stderr, "perfbench: fit-fleet: %d fleet fits, median %.3f s, %d iterations\n", len(walls), fitS, iterations)

	if bad := f.checkModels(); len(bad) > 0 {
		o.fail(int64(len(bad)), "invalid models: %v", bad)
	}
	mape, err := f.heldOutMAPE(ctx)
	if err != nil {
		return nil, err
	}
	o.e2e.set("fit_mape_pct", "%", mape)
	// Fitting has no request rate or simulation of its own: a simulated
	// fleet of the fitted models stands in for both.
	jobs, events, err := simulatedRates(ctx, cfg, f, o)
	if err != nil {
		return nil, err
	}
	o.e2e.set("max_rps", "1/s", jobs)
	o.e2e.set("sim_events_per_s", "1/s", events)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.e2e.set("peak_rss_mb", "MB", rss)

	if cfg.trace {
		o.layer.set("trace.overhead_ms", "ms", percentile(runs[1].memberMs, 50)-percentile(fits.memberMs, 50))
		if err := measureLayers(ctx, cfg, "fit-fleet", f, nil, tr, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// fitRuns are repeated fleet fits.
type fitRuns struct {
	walls []time.Duration
	// memberMs is, per member fit, the time from the fleet fit's start to
	// that member's last estimator iteration: when its model was ready.
	memberMs []float64
	cpu      time.Duration
}

func (r *fitRuns) wallsS() []float64 {
	out := make([]float64, len(r.walls))
	for i, w := range r.walls {
		out[i] = w.Seconds()
	}
	return out
}

// repeatFits refits the fleet until d has passed, cycling through
// tracers (a nil tracer records nothing), at least twice per tracer, and
// returns the fits made under each tracer. Every fit must reproduce the
// first bit for bit.
func repeatFits(ctx context.Context, f *fittedFleet, d time.Duration, tracers []*tracer, o *outcome) ([]*fitRuns, error) {
	out := make([]*fitRuns, len(tracers))
	for i := range out {
		out[i] = &fitRuns{}
	}
	deadline := time.Now().Add(d)
	for rep := 0; rep < 2*len(tracers) || time.Now().Before(deadline); rep++ {
		runs, tr := out[rep%len(tracers)], tracers[rep%len(tracers)]
		clock := newMemberClock()
		opts := core.DefaultEstimatorOptions()
		opts.Trace = clock.tick
		cpu0 := selfCPU()
		clock.start = time.Now()
		o.attempted += int64(len(f.specs))
		wall, err := f.fit(ctx, opts)
		runs.cpu += selfCPU() - cpu0
		if err != nil {
			o.fail(int64(len(f.specs)), "fleet fit: %v", err)
			continue
		}
		end := clock.start.Add(wall)
		done := clock.finish()
		if len(done) != len(f.specs) {
			return nil, fmt.Errorf("traced %d member fits, want %d", len(done), len(f.specs))
		}
		root := tr.add(int64(rep), 0, "fleet.FitDatasets", clock.start, end, false)
		for _, t := range done {
			tr.add(int64(rep), root, "core.Estimate", clock.start, clock.start.Add(t), false)
			runs.memberMs = append(runs.memberMs, float64(t)/float64(time.Millisecond))
		}
		runs.walls = append(runs.walls, wall)
	}
	for _, r := range out {
		if len(r.walls) == 0 {
			return nil, fmt.Errorf("every fleet fit failed")
		}
	}
	return out, nil
}

// memberClock tells concurrent fits apart inside the estimator's Trace
// callback, which carries no fit identity: each pool worker runs its fits
// one after another on its own goroutine, and a fit's first iteration is
// numbered 1, so a 1 on a goroutine that already reported ends that
// goroutine's previous fit.
type memberClock struct {
	mu    sync.Mutex
	start time.Time
	last  map[int64]time.Time
	done  []time.Duration
}

func newMemberClock() *memberClock { return &memberClock{last: map[int64]time.Time{}} }

func (c *memberClock) tick(iter int, _, _, _ float64) {
	now, g := time.Now(), goroutineID()
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.last[g]; ok && iter == 1 {
		c.done = append(c.done, t.Sub(c.start))
	}
	c.last[g] = now
}

// finish closes the fits still open and returns every member's completion
// time since start.
func (c *memberClock) finish() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.last {
		c.done = append(c.done, t.Sub(c.start))
	}
	return c.done
}

// goroutineID parses the running goroutine's ID from its stack header
// ("goroutine 123 [running]:").
func goroutineID() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}
