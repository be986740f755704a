package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"gpupower/internal/core"
	"gpupower/internal/fleet"
	"gpupower/internal/hw"
	"gpupower/internal/sim"
	"gpupower/internal/stats"
	"gpupower/internal/suites"
)

// serverSeed is the die seed gpowerd and the in-process reference fits use
// on the serving and simulation workloads. It is a constant, not derived
// from the benchmark seed: the seed varies the inputs sent to the
// programs, never their flags.
const serverSeed = 42

// servedSpecs are the members gpowerd fits for the given -devices list at
// -seed serverSeed, named as gpowerd names them ("GTX Titan X#42").
func servedSpecs(devices []string) []fleet.Spec {
	specs := make([]fleet.Spec, len(devices))
	for i, d := range devices {
		specs[i] = fleet.Spec{Device: d, Seed: serverSeed + uint64(i)}
	}
	return specs
}

// fittedFleet is a set of members with their training data and models.
type fittedFleet struct {
	specs    []fleet.Spec
	devices  []*hw.Device
	datasets []*core.Dataset
	models   []*core.Model
	// buildWall is how long measuring the datasets took.
	buildWall time.Duration
}

// buildDatasets measures one training dataset per spec (core.BuildDataset
// over the simulator backend, members in parallel) and times it.
func buildDatasets(ctx context.Context, specs []fleet.Spec) (*fittedFleet, time.Duration, error) {
	start := time.Now()
	ds, err := fleet.BuildDatasets(ctx, specs)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	f := &fittedFleet{specs: specs, datasets: ds, buildWall: wall}
	for _, s := range specs {
		dev, err := hw.DeviceByName(s.Device)
		if err != nil {
			return nil, 0, err
		}
		f.devices = append(f.devices, dev)
	}
	return f, wall, nil
}

// fit fits every member concurrently (fleet.FitDatasets) and times the
// call. A repeated fit must reproduce the previous models bit for bit;
// a mismatch is returned as an error.
func (f *fittedFleet) fit(ctx context.Context, opts *core.EstimatorOptions) (time.Duration, error) {
	start := time.Now()
	models, err := fleet.FitDatasets(ctx, f.datasets, opts)
	wall := time.Since(start)
	if err != nil {
		return 0, err
	}
	if f.models != nil {
		for i := range models {
			if !sameModel(f.models[i], models[i]) {
				return 0, fmt.Errorf("refit of %s differs from the previous fit", f.specs[i])
			}
		}
	}
	f.models = models
	return wall, nil
}

func sameModel(a, b *core.Model) bool {
	ja, err1 := a.MarshalJSON()
	jb, err2 := b.MarshalJSON()
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// checkModels returns one message per model that fails Validate or holds a
// non-finite parameter.
func (f *fittedFleet) checkModels() []string {
	var bad []string
	for i, m := range f.models {
		if err := m.Validate(); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", f.specs[i], err))
			continue
		}
		if !finiteModel(m) {
			bad = append(bad, fmt.Sprintf("%s: non-finite parameter", f.specs[i]))
		}
	}
	return bad
}

func finiteModel(m *core.Model) bool {
	vals := append([]float64{m.OmegaMem, m.L2BytesPerCycle}, m.Beta[:]...)
	for _, w := range m.OmegaCore {
		vals = append(vals, w)
	}
	for mi := range m.Voltages.VCore {
		vals = append(vals, m.Voltages.VCore[mi]...)
		vals = append(vals, m.Voltages.VMem[mi]...)
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// heldOutMAPE scores every model on the 26 validation applications, which
// no fit ever sees, at every ladder configuration. The prediction starts
// from the application's profile at the reference configuration, exactly
// as a user would run the model; the truth is the simulator's exact
// average power (sim.RunResult.TruePower, time-weighted over the
// application's kernels) on the same die, which no measurement path
// reads. The result is the mean absolute percentage error over all points.
func (f *fittedFleet) heldOutMAPE(ctx context.Context) (float64, error) {
	var sum float64
	var n int
	apps := suites.ValidationSet()
	for i, m := range f.models {
		member, err := fleet.OpenMember(f.specs[i])
		if err != nil {
			return 0, err
		}
		truth, err := sim.New(f.devices[i], f.specs[i].Seed)
		if err != nil {
			return 0, err
		}
		for _, app := range apps {
			prof, err := member.Profiler.ProfileApp(ctx, app.App, m.Ref)
			if err != nil {
				return 0, err
			}
			u, err := core.AppUtilization(f.devices[i], prof, m.L2BytesPerCycle)
			if err != nil {
				return 0, err
			}
			for _, cfg := range f.devices[i].Ladder() {
				pred, err := m.Predict(u, cfg)
				if err != nil {
					return 0, err
				}
				if err := truth.SetClocks(cfg.MemMHz, cfg.CoreMHz); err != nil {
					return 0, err
				}
				var energy, secs float64
				for _, k := range app.App.Kernels {
					run, err := truth.Execute(k)
					if err != nil {
						return 0, err
					}
					energy += run.TruePower * run.Exec.Seconds()
					secs += run.Exec.Seconds()
				}
				want := energy / secs
				sum += math.Abs(pred-want) / want
				n++
			}
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no validation points")
	}
	return 100 * sum / float64(n), nil
}

// prepareServed builds and fits, in process, the members a serving or
// simulation workload uses, fitting reps times (the fit_s metric is the
// median), and scores them against truth.
func prepareServed(ctx context.Context, specs []fleet.Spec, reps int, o *outcome) (*fittedFleet, error) {
	f, _, err := buildDatasets(ctx, specs)
	if err != nil {
		return nil, err
	}
	var walls []float64
	for r := 0; r < reps; r++ {
		wall, err := f.fit(ctx, nil)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
	}
	if bad := f.checkModels(); len(bad) > 0 {
		o.fail(int64(len(bad)), "invalid models: %v", bad)
	}
	mape, err := f.heldOutMAPE(ctx)
	if err != nil {
		return nil, err
	}
	o.e2e.set("fit_s", "s", stats.Median(walls))
	o.e2e.set("fit_mape_pct", "%", mape)
	return f, nil
}
