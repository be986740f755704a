package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"gpupower/internal/cluster"
	"gpupower/internal/core"
	"gpupower/internal/fleet"
	"gpupower/internal/governor"
	"gpupower/internal/parallel"
	"gpupower/internal/stats"
	"gpupower/internal/suites"
)

// simClasses is the fleet's job mix, the cluster experiment's: compute-
// bound (BLCKSC, CUTCP), DRAM-bound (LBM) and balanced (GEMM) validation
// applications, weighted toward the compute-heavy end.
var simClasses = []cluster.KernelClass{
	{Name: "BLCKSC", Weight: 4}, {Name: "LBM", Weight: 3}, {Name: "CUTCP", Weight: 2}, {Name: "GEMM", Weight: 1},
}

// simPolicies are the disciplines each repetition runs: the model-driven
// governor (decisions hoisted out of the event loop) and the per-job
// oracle (a surface scan per job).
var simPolicies = []cluster.Policy{cluster.ModelDVFS, cluster.Oracle}

// Indices into simPolicies.
const (
	modelPolicy  = 0
	oraclePolicy = 1
)

// simFleet is one simulator per policy over the same fleet and traffic.
type simFleet struct {
	sims   []*cluster.Simulator
	events int64 // per repetition, all policies
}

// newSimFleet profiles the job-mix applications on every member at its
// model's reference clocks and builds one simulator per policy: gpus GPUs,
// Gamma-renewal (bursty, CV 2) arrivals over horizon simulated seconds,
// traffic seeded by seed.
func newSimFleet(ctx context.Context, f *fittedFleet, seed uint64, gpus int, horizon float64) (*simFleet, error) {
	var models []cluster.DeviceModel
	for i, m := range f.models {
		member, err := fleet.OpenMember(f.specs[i])
		if err != nil {
			return nil, err
		}
		dm := cluster.DeviceModel{Device: f.devices[i], Model: m}
		for _, c := range simClasses {
			app, err := suites.ByShort(c.Name)
			if err != nil {
				return nil, err
			}
			prof, err := member.Profiler.ProfileApp(ctx, app.App, m.Ref)
			if err != nil {
				return nil, err
			}
			u, err := core.AppUtilization(f.devices[i], prof, m.L2BytesPerCycle)
			if err != nil {
				return nil, err
			}
			var ref float64
			for _, k := range prof.Kernels {
				ref += k.Seconds
			}
			dm.Classes = append(dm.Classes, cluster.DeviceClass{Util: u, RefSeconds: ref})
		}
		models = append(models, dm)
	}
	sf := &simFleet{}
	for _, p := range simPolicies {
		s, err := cluster.NewSimulator(ctx, &cluster.Options{
			GPUs:           gpus,
			HorizonSeconds: horizon,
			Seed:           seed,
			Fleet:          models,
			Classes:        simClasses,
			Workload: cluster.Workload{
				Process: cluster.GammaArrivals, RatePerGPU: 60, CV: 2, SlackMin: 2, SlackMax: 6,
			},
			Policy:     p,
			Governor:   governor.MinEnergy,
			MaxStretch: 2,
		})
		if err != nil {
			return nil, err
		}
		sf.sims = append(sf.sims, s)
	}
	return sf, nil
}

// check runs every policy once single-threaded and once sharded and
// reports a sharded run whose trace hash, event or job count differs.
// It returns the sharded runs' metrics and both runs' wall times.
func (sf *simFleet) check(ctx context.Context, o *outcome) ([]cluster.Metrics, []time.Duration, []time.Duration, error) {
	var out []cluster.Metrics
	var seqT, parT []time.Duration
	for i, s := range sf.sims {
		var seq, par cluster.Metrics
		prev := parallel.SetSequential(true)
		start := time.Now()
		err := s.RunInto(ctx, &seq)
		seqT = append(seqT, time.Since(start))
		parallel.SetSequential(prev)
		if err != nil {
			return nil, nil, nil, err
		}
		start = time.Now()
		if err := s.RunInto(ctx, &par); err != nil {
			return nil, nil, nil, err
		}
		parT = append(parT, time.Since(start))
		o.attempted++
		if seq.TraceHash != par.TraceHash || seq.Events != par.Events || seq.Jobs != par.Jobs {
			o.fail(1, "%v: sharded run (hash %x, %d events, %d jobs) differs from the sequential one (hash %x, %d events, %d jobs)",
				simPolicies[i], par.TraceHash, par.Events, par.Jobs, seq.TraceHash, seq.Events, seq.Jobs)
		}
		out = append(out, par)
	}
	return out, seqT, parT, nil
}

// The fleet-sim shape: a 1,000-GPU mixed fleet, 2 simulated seconds of
// bursty traffic per run.
const (
	simGPUs    = 1000
	simHorizon = 2.0
)

// runFleetSim: the event heap, pools, sharded fold and per-job decision
// path of the cluster simulator; serving and fitting are set-up only.
func runFleetSim(ctx context.Context, cfg *config) (*outcome, error) {
	o := newOutcome()
	specs := servedSpecs([]string{"Titan Xp", "GTX Titan X", "Tesla K40c"})
	// Set-up: datasets, fits and simulators, setupReps times; the median
	// is setup_s.
	var setups, fits, simSetups []float64
	var f *fittedFleet
	var sf *simFleet
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		ff, _, err := buildDatasets(ctx, specs)
		if err != nil {
			return nil, err
		}
		fitWall, err := ff.fit(ctx, nil)
		if err != nil {
			return nil, err
		}
		simStart := time.Now()
		s, err := newSimFleet(ctx, ff, cfg.seed, simGPUs, simHorizon)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		setups = append(setups, end.Sub(start).Seconds())
		fits = append(fits, fitWall.Seconds())
		simSetups = append(simSetups, end.Sub(simStart).Seconds())
		if f != nil {
			for i := range ff.models {
				if !sameModel(f.models[i], ff.models[i]) {
					o.fail(1, "set-up %d fitted %s differently", r, ff.specs[i])
				}
			}
		}
		f, sf = ff, s
	}
	o.e2e.set("setup_s", "s", stats.Median(setups))
	o.e2e.set("fit_s", "s", stats.Median(fits))
	o.layer.set("cluster.setup_s", "s", stats.Median(simSetups))
	if bad := f.checkModels(); len(bad) > 0 {
		o.fail(int64(len(bad)), "invalid models: %v", bad)
	}
	mape, err := f.heldOutMAPE(ctx)
	if err != nil {
		return nil, err
	}
	o.e2e.set("fit_mape_pct", "%", mape)

	ms, seqT, parT, err := sf.check(ctx, o)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		sf.events += m.Events
	}

	// A traced run alternates untraced and traced repetitions, so both see
	// the same machine; the metrics below come from the untraced ones.
	tracers := []*tracer{nil}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		tracers = append(tracers, tr)
	}
	all, err := sf.repeat(ctx, cfg.span(1), tracers, o)
	if err != nil {
		return nil, err
	}
	runs := all[0]
	lat := repMs(runs, len(sf.sims))
	// Each metric takes its own figure: the oracle runs' wall time (its
	// per-job decision path), the model-dvfs runs' event throughput, the
	// CPU of both, and the jobs the simulated fleet served per simulated
	// second (exact for a seed).
	o.e2e.set("p50_ms", "ms", stats.Median(repMs(ofPolicy(runs, oraclePolicy), 1)))
	var rates []float64
	for _, r := range ofPolicy(runs, modelPolicy) {
		rates = append(rates, float64(r.events)/r.wall.Seconds())
	}
	o.e2e.set("sim_events_per_s", "1/s", stats.Median(rates))
	o.e2e.set("server_cpu_ms_per_req", "ms", float64(cpuOf(runs))/float64(time.Millisecond)/float64(len(lat)))
	o.e2e.set("max_rps", "1/s", float64(ms[modelPolicy].Jobs)/simHorizon)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.e2e.set("peak_rss_mb", "MB", rss)
	fmt.Fprintf(os.Stderr, "perfbench: fleet-sim: %d runs of %d events, %.3g events/s\n", len(runs), sf.events/int64(len(sf.sims)), o.e2e["sim_events_per_s"].Value)

	if cfg.trace {
		o.layer.set("trace.overhead_ms", "ms", percentile(repMs(all[1], len(sf.sims)), 50)-percentile(lat, 50))
		sf.layers(ctx, ms, seqT, parT, runs, o)
		if err := measureLayers(ctx, cfg, "fleet-sim", f, nil, tr, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// simRun is one timed RunInto.
type simRun struct {
	policy int
	wall   time.Duration
	cpu    time.Duration
	events int64
}

// repeat runs repetitions (every policy once) until d has passed,
// cycling through tracers (a nil tracer records nothing), at least once
// per tracer, and returns the runs made under each tracer.
func (sf *simFleet) repeat(ctx context.Context, d time.Duration, tracers []*tracer, o *outcome) ([][]simRun, error) {
	out := make([][]simRun, len(tracers))
	var m cluster.Metrics
	deadline := time.Now().Add(d)
	for rep := 0; rep < len(tracers) || time.Now().Before(deadline); rep++ {
		k := rep % len(tracers)
		for i, s := range sf.sims {
			o.attempted++
			cpu0 := selfCPU()
			start := time.Now()
			err := s.RunInto(ctx, &m)
			end := time.Now()
			if err != nil {
				return nil, err
			}
			tracers[k].add(int64(rep), 0, "cluster.RunInto."+simPolicies[i].String(), start, end, false)
			out[k] = append(out[k], simRun{policy: i, wall: end.Sub(start), cpu: selfCPU() - cpu0, events: m.Events})
		}
	}
	return out, nil
}

// repMs returns each repetition's wall time in ms: the runs come in
// repetitions of one run per policy.
func repMs(runs []simRun, policies int) []float64 {
	var out []float64
	for k := 0; k+policies <= len(runs); k += policies {
		var d time.Duration
		for _, r := range runs[k : k+policies] {
			d += r.wall
		}
		out = append(out, float64(d)/float64(time.Millisecond))
	}
	return out
}

// ofPolicy returns the runs of policy i.
func ofPolicy(runs []simRun, i int) []simRun {
	var out []simRun
	for _, r := range runs {
		if r.policy == i {
			out = append(out, r)
		}
	}
	return out
}

func cpuOf(runs []simRun) time.Duration {
	var c time.Duration
	for _, r := range runs {
		c += r.cpu
	}
	return c
}

// layers sets the cluster's per-layer metrics from the timed runs and the
// sequential-versus-sharded check.
func (sf *simFleet) layers(ctx context.Context, ms []cluster.Metrics, seqT, parT []time.Duration, runs []simRun, o *outcome) {
	for i, p := range simPolicies {
		var per []float64
		for _, r := range ofPolicy(runs, i) {
			per = append(per, float64(r.wall)/float64(r.events))
		}
		o.layer.set("cluster.ns_per_event."+p.String(), "ns", stats.Median(per))
	}
	var seq, par time.Duration
	for i := range seqT {
		seq += seqT[i]
		par += parT[i]
	}
	o.layer.set("cluster.shard_eff", "ratio", seq.Seconds()/(par.Seconds()*float64(parallel.Workers())))
	var before, after runtime.MemStats
	var m cluster.Metrics
	runtime.ReadMemStats(&before)
	_ = sf.sims[0].RunInto(ctx, &m)
	runtime.ReadMemStats(&after)
	o.layer.set("cluster.allocs_per_run", "count", float64(after.Mallocs-before.Mallocs))
	var events, jobs int64
	for _, m := range ms {
		events += m.Events
		jobs += m.Jobs
	}
	o.layer.set("cluster.events", "count", float64(events))
	o.layer.set("cluster.jobs", "count", float64(jobs))
}

// simulatedRates simulates, for a workload that does not simulate, the
// fleet-sim fleet and traffic over the workload's own models. Once each
// policy's sharded run has been checked against its sequential one, it
// returns the model-dvfs run's jobs and events per simulated second. Both
// are exact for a seed: no slowdown moves them, and no other metric of
// those workloads carries them.
func simulatedRates(ctx context.Context, cfg *config, f *fittedFleet, o *outcome) (jobs, events float64, err error) {
	sf, err := newSimFleet(ctx, f, cfg.seed, simGPUs, simHorizon)
	if err != nil {
		return 0, 0, err
	}
	ms, _, _, err := sf.check(ctx, o)
	if err != nil {
		return 0, 0, err
	}
	m := ms[modelPolicy]
	return float64(m.Jobs) / simHorizon, float64(m.Events) / simHorizon, nil
}

// simLayers measures the cluster layer on a workload that does not
// simulate, on the fleet simulatedRates simulates, so every traced run
// reports the cluster metrics.
func simLayers(ctx context.Context, cfg *config, f *fittedFleet, tr *tracer, o *outcome) error {
	start := time.Now()
	sf, err := newSimFleet(ctx, f, cfg.seed, simGPUs, simHorizon)
	if err != nil {
		return err
	}
	o.layer.set("cluster.setup_s", "s", time.Since(start).Seconds())
	ms, seqT, parT, err := sf.check(ctx, o)
	if err != nil {
		return err
	}
	runs, err := sf.repeat(ctx, cfg.span(0.05), []*tracer{tr}, o)
	if err != nil {
		return err
	}
	sf.layers(ctx, ms, seqT, parT, runs[0], o)
	return nil
}
