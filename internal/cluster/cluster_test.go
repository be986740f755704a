package cluster

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"gpupower/internal/core"
	"gpupower/internal/governor"
	"gpupower/internal/hw"
	"gpupower/internal/parallel"
)

// testModel builds a synthetic but valid fitted model for dev — the same
// shape the serving tests use, cheap enough to construct per test.
func testModel(t testing.TB, dev *hw.Device, beta0 float64) *core.Model {
	t.Helper()
	m := &core.Model{
		DeviceName: dev.Name,
		Ref:        dev.DefaultConfig(),
		Beta:       [4]float64{beta0, 0.02, 10, 0.002},
		OmegaCore: map[hw.Component]float64{
			hw.Int: 0.011, hw.SP: 0.013, hw.DP: 0.017,
			hw.SF: 0.007, hw.Shared: 0.005, hw.L2: 0.009,
		},
		OmegaMem:        0.004,
		Voltages:        core.NewVoltageTable(dev.CoreFreqs, dev.MemFreqs),
		L2BytesPerCycle: dev.L2BytesPerCycle,
		Iterations:      3,
		Converged:       true,
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("synthetic model invalid: %v", err)
	}
	return m
}

// testClasses is the job mix used across the tests: a compute-bound, a
// memory-bound and a mixed class, with distinct service times.
var testClasses = []KernelClass{
	{Name: "compute", Weight: 5},
	{Name: "memory", Weight: 3},
	{Name: "mixed", Weight: 2},
}

// testDeviceClasses realizes testClasses on one device, scaling service
// times by scale so heterogeneous fleets exercise distinct schedules.
func testDeviceClasses(scale float64) []DeviceClass {
	return []DeviceClass{
		{Util: core.Utilization{hw.SP: 0.9, hw.Int: 0.5, hw.L2: 0.2, hw.DRAM: 0.1}, RefSeconds: 0.030 * scale},
		{Util: core.Utilization{hw.SP: 0.2, hw.L2: 0.5, hw.DRAM: 0.8}, RefSeconds: 0.080 * scale},
		{Util: core.Utilization{hw.SP: 0.5, hw.DP: 0.3, hw.L2: 0.4, hw.DRAM: 0.4}, RefSeconds: 0.050 * scale},
	}
}

// testOptions builds a two-device-model fleet under moderate Poisson load.
func testOptions(t testing.TB, gpus int, seed uint64) *Options {
	t.Helper()
	devA := hw.GTXTitanX()
	devB := hw.TeslaK40c()
	return &Options{
		GPUs:           gpus,
		HorizonSeconds: 20,
		Seed:           seed,
		Fleet: []DeviceModel{
			{Device: devA, Model: testModel(t, devA, 35), Classes: testDeviceClasses(1)},
			{Device: devB, Model: testModel(t, devB, 40), Classes: testDeviceClasses(1.5)},
		},
		Classes: testClasses,
		Workload: Workload{
			Process:    Poisson,
			RatePerGPU: 8,
			SlackMin:   2,
			SlackMax:   6,
		},
		Policy:     ModelDVFS,
		Governor:   governor.MinEnergy,
		MaxStretch: 2,
	}
}

// TestSerialParallelIdentical pins the repo's determinism discipline on the
// cluster engine: a parallel run (GPUs sharded across workers) must produce
// bitwise-identical Metrics — energy folds, latency quantiles, trace hash —
// to the sequential-mode oracle, at any worker count.
func TestSerialParallelIdentical(t *testing.T) {
	ctx := context.Background()
	for _, policy := range []Policy{Static, ModelDVFS, Oracle} {
		opts := testOptions(t, 97, 42) // prime fleet size: ragged last shard
		opts.Policy = policy

		prev := parallel.SetSequential(true)
		serial, err := Run(ctx, opts)
		parallel.SetSequential(prev)
		if err != nil {
			t.Fatalf("%v serial: %v", policy, err)
		}

		prevProcs := runtime.GOMAXPROCS(4)
		par, err := Run(ctx, opts)
		runtime.GOMAXPROCS(prevProcs)
		if err != nil {
			t.Fatalf("%v parallel: %v", policy, err)
		}

		if !reflect.DeepEqual(serial, par) {
			t.Errorf("%v: parallel metrics diverge from serial oracle\nserial:   %+v\nparallel: %+v", policy, serial, par)
		}
		if serial.Jobs == 0 {
			t.Errorf("%v: simulation completed no jobs", policy)
		}
	}
}

// TestSeedReproducibility pins the stochastic contract: the same seed
// replays the identical event history, and a different seed does not.
func TestSeedReproducibility(t *testing.T) {
	ctx := context.Background()
	a1, err := Run(ctx, testOptions(t, 50, 7))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Run(ctx, testOptions(t, 50, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Errorf("same seed diverges:\nrun 1: %+v\nrun 2: %+v", a1, a2)
	}
	b, err := Run(ctx, testOptions(t, 50, 8))
	if err != nil {
		t.Fatal(err)
	}
	if b.TraceHash == a1.TraceHash {
		t.Error("different seeds produced the same trace hash")
	}
}

// TestClusterSteadyStateAllocsBounded pins the zero-allocation steady state
// of the event loop: after one warm-up run, re-running a Simulator (the
// benchmark loop, parameter sweeps) allocates nothing — event records come
// from the pool, the heap and rings are at their high-water marks, and the
// metrics fold writes into caller-owned memory.
func TestClusterSteadyStateAllocsBounded(t *testing.T) {
	ctx := context.Background()
	prev := parallel.SetSequential(true) // the fan-out path allocates goroutine stacks by design
	defer parallel.SetSequential(prev)

	sim, err := NewSimulator(ctx, testOptions(t, 60, 3))
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := sim.RunInto(ctx, &m); err != nil { // warm-up: grow pools to high-water
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := sim.RunInto(ctx, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state run allocates %.1f times, want 0", allocs)
	}
	if m.Jobs == 0 || m.Events == 0 {
		t.Fatalf("degenerate run: %+v", m)
	}
}

// TestPolicyOrdering sanity-checks the physics of the three policies on the
// same traffic: DVFS policies must not spend more energy than static clocks
// (that is the point of the model), and the per-job oracle — which may
// stretch each job to its full deadline slack, beyond ModelDVFS's
// MaxStretch — must save at least as much energy as the class-granular
// decision. (Miss rates are NOT monotone across policies: the oracle's
// aggressive stretching lengthens queues, so it can miss more deadlines
// than ModelDVFS while still spending less energy.)
func TestPolicyOrdering(t *testing.T) {
	ctx := context.Background()
	run := func(p Policy) *Metrics {
		t.Helper()
		opts := testOptions(t, 40, 11)
		opts.Policy = p
		m, err := Run(ctx, opts)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		return m
	}
	static := run(Static)
	dvfs := run(ModelDVFS)
	oracle := run(Oracle)

	if dvfs.EnergyJ >= static.EnergyJ {
		t.Errorf("model-dvfs energy %.1f J not below static %.1f J", dvfs.EnergyJ, static.EnergyJ)
	}
	if oracle.EnergyJ >= static.EnergyJ {
		t.Errorf("oracle energy %.1f J not below static %.1f J", oracle.EnergyJ, static.EnergyJ)
	}
	if oracle.EnergyJ > dvfs.EnergyJ {
		t.Errorf("oracle energy %.1f J above model-dvfs %.1f J", oracle.EnergyJ, dvfs.EnergyJ)
	}
	if oracle.MissRate > 0.2 {
		t.Errorf("oracle miss rate %.4f implausibly high", oracle.MissRate)
	}
	// MaxStretch ≤ SlackMin: a ModelDVFS fleet under moderate load should
	// miss only queue-delayed deadlines, not plan to miss.
	if dvfs.MissRate > 0.2 {
		t.Errorf("model-dvfs miss rate %.4f implausibly high for stretch %g within slack %g",
			dvfs.MissRate, 2.0, 2.0)
	}
	for _, m := range []*Metrics{static, dvfs, oracle} {
		if m.P50Seconds <= 0 || m.P99Seconds < m.P50Seconds {
			t.Errorf("implausible latency quantiles p50=%g p99=%g", m.P50Seconds, m.P99Seconds)
		}
	}
}

// TestArrivalProcesses runs each arrival process and checks the offered
// load lands near its analytic mean. The streams are seeded, so this cannot
// flake; the gamma bound is wider because a CV=2 renewal stream's count
// variance is several times Poisson's over a 20 s window.
func TestArrivalProcesses(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		proc      Process
		tolerance float64
	}{
		{Poisson, 0.1},
		{GammaArrivals, 0.25},
		{Diurnal, 0.1},
	} {
		opts := testOptions(t, 50, 5)
		opts.Workload.Process = tc.proc
		opts.Workload.CV = 2 // bursty gamma
		opts.Workload.DiurnalAmplitude = 0.5
		opts.Workload.DiurnalPeriod = 10
		m, err := Run(ctx, opts)
		if err != nil {
			t.Fatalf("%v: %v", tc.proc, err)
		}
		want := opts.Workload.RatePerGPU * float64(opts.GPUs) * opts.HorizonSeconds
		if f := float64(m.Jobs) / want; f < 1-tc.tolerance || f > 1+tc.tolerance {
			t.Errorf("%v: %d jobs, want ≈%.0f (ratio %.3f)", tc.proc, m.Jobs, want, f)
		}
	}
}

// TestEventHeapOrdering pins the heap's total order on an adversarial batch:
// duplicate timestamps across GPUs and kinds must pop in (time, gpu,
// completion-before-arrival) order.
func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	var pool eventPool
	r := newPRNG(123, 0)
	const n = 500
	for i := 0; i < n; i++ {
		e := pool.get()
		e.at = float64(r.next() % 50) // dense duplicates
		e.gpu = int32(r.next() % 7)
		e.kind = eventKind(r.next() % 2)
		h.push(e)
	}
	var popped []*event
	for {
		e := h.pop()
		if e == nil {
			break
		}
		popped = append(popped, e)
	}
	if len(popped) != n {
		t.Fatalf("popped %d events, pushed %d", len(popped), n)
	}
	sorted := sort.SliceIsSorted(popped, func(i, j int) bool {
		a, b := popped[i], popped[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.gpu != b.gpu {
			return a.gpu < b.gpu
		}
		return a.kind > b.kind
	})
	if !sorted {
		t.Error("heap pop order violates the (time, gpu, kind) total order")
	}
}

// TestLatHistQuantile checks the log-binned histogram against exact sample
// quantiles within its one-sub-bin resolution bound.
func TestLatHistQuantile(t *testing.T) {
	var h latHist
	r := newPRNG(9, 1)
	samples := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := r.exp(1) * 0.01 // latencies around 10 ms
		samples = append(samples, v)
		h.add(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.50, 0.99} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		got := h.quantile(q)
		// The reported value is the lower edge of the sample's bin: within
		// a factor of one sub-bin (2^(1/4) ≈ 1.19) below the exact value.
		if got > exact || got < exact/1.2 {
			t.Errorf("q%.2f = %g, exact %g (outside one sub-bin)", q, got, exact)
		}
	}
	if h.quantile(0.5) == 0 {
		t.Error("median of a positive sample is zero")
	}
}

// TestDecisionCache pins the decision cache's memoization and its
// generation-keyed eviction.
func TestDecisionCache(t *testing.T) {
	ctx := context.Background()
	dev := hw.GTXTitanX()
	m := testModel(t, dev, 35)
	u := core.Utilization{hw.SP: 0.7, hw.DRAM: 0.3}
	s, err := core.Surfaces.Get(ctx, m, dev, m.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	c := NewDecisionCache(8)
	d1, err := c.Get(s, governor.MinEnergy, dev.TDP, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.Get(s, governor.MinEnergy, dev.TDP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("cache returned different decisions: %+v vs %+v", d1, d2)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
	// The decision must agree with the governor's direct scan.
	i, err := governor.DecideOnSurface(s, governor.MinEnergy, dev.TDP)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Index != i {
		t.Errorf("cached index %d, governor scan %d", d1.Index, i)
	}

	// A refit (new generation → new surface) must not hit stale entries,
	// and stale-generation entries are evicted first on overflow.
	m.InvalidateSurfaces()
	s2, err := core.Surfaces.Get(ctx, m, dev, m.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s {
		t.Fatal("invalidation did not produce a new surface")
	}
	for cap := 200.0; cap < 208; cap++ { // overflow the 8-entry cache
		if _, err := c.Get(s2, governor.MinEnergy, cap, 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 8 {
		t.Errorf("cache holds %d entries, capacity 8", c.Len())
	}
}

// TestOptionsValidation spot-checks the option guards.
func TestOptionsValidation(t *testing.T) {
	ctx := context.Background()
	cases := []func(*Options){
		func(o *Options) { o.GPUs = 0 },
		func(o *Options) { o.HorizonSeconds = 0 },
		func(o *Options) { o.Fleet = nil },
		func(o *Options) { o.Classes = nil },
		func(o *Options) { o.Classes[0].Weight = 0 },
		func(o *Options) { o.Fleet[0].Classes = o.Fleet[0].Classes[:1] },
		func(o *Options) { o.Fleet[0].Classes[0].RefSeconds = 0 },
		func(o *Options) { o.Workload.RatePerGPU = 0 },
		func(o *Options) { o.Workload.SlackMin = 0.5 },
		func(o *Options) { o.Policy = Policy(99) },
	}
	for i, mutate := range cases {
		opts := testOptions(t, 4, 1)
		mutate(opts)
		if _, err := Run(ctx, opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

// BenchmarkClusterEvents measures raw event throughput on the
// single-threaded engine — the number the cluster_sim BENCH row and its CI
// floor track. One op is one full fleet run; the custom metric is
// events/sec.
func BenchmarkClusterEvents(b *testing.B) {
	ctx := context.Background()
	prev := parallel.SetSequential(true)
	defer parallel.SetSequential(prev)
	opts := testOptions(b, 1000, 42)
	sim, err := NewSimulator(ctx, opts)
	if err != nil {
		b.Fatal(err)
	}
	var m Metrics
	if err := sim.RunInto(ctx, &m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.RunInto(ctx, &m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// TestEnginesKeepACacheLineApart pins the engine's trailing pad: adjacent
// shards' engines share the Simulator.engines backing array, so the bytes
// after an engine's last field must span a cache line, or one shard's
// heap and pool writes land on a line the next shard reads every event.
func TestEnginesKeepACacheLineApart(t *testing.T) {
	var en engine
	fieldsEnd := unsafe.Offsetof(en.pool) + unsafe.Sizeof(en.pool)
	if gap := unsafe.Sizeof(en) - fieldsEnd; gap < 64 {
		t.Fatalf("engine ends %d bytes after its last field; want at least 64", gap)
	}
}
