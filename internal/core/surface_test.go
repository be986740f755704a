package core

import (
	"context"
	"math"
	"strconv"
	"sync"
	"testing"

	"gpupower/internal/hw"
	"gpupower/internal/stats"
)

// surfaceTestModel builds a fitted-shaped model with a non-trivial voltage
// table, cheap enough to construct per test.
func surfaceTestModel(dev *hw.Device, seed uint64) *Model {
	rng := stats.NewRNG(seed)
	volt := NewVoltageTable(dev.CoreFreqs, dev.MemFreqs)
	for mi := range volt.VCore {
		for ci := range volt.VCore[mi] {
			volt.VCore[mi][ci] = 0.85 + 0.3*rng.Float64()
			volt.VMem[mi][ci] = 0.85 + 0.3*rng.Float64()
		}
	}
	m := &Model{
		DeviceName: dev.Name,
		Ref:        dev.DefaultConfig(),
		Beta:       [4]float64{15, 0.017, 8, 0.0126},
		OmegaCore: map[hw.Component]float64{
			hw.Int: 0.025, hw.SP: 0.030, hw.DP: 0.020,
			hw.SF: 0.045, hw.Shared: 0.020, hw.L2: 0.030,
		},
		OmegaMem:        0.0334,
		Voltages:        volt,
		L2BytesPerCycle: dev.L2BytesPerCycle,
	}
	return m
}

func randomUtil(rng *stats.RNG) Utilization {
	u := Utilization{}
	for _, c := range hw.Components {
		if rng.Float64() < 0.7 {
			u[c] = rng.Float64()
		}
	}
	return u
}

// TestPredictAllMatchesPredict pins the flattened fast path (predictFlat,
// via PredictAll) to the map-walking Decompose+SumComponents path bitwise.
func TestPredictAllMatchesPredict(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 1)
	rng := stats.NewRNG(2)
	configs := dev.AllConfigs()
	dst := make([]float64, len(configs))
	for trial := 0; trial < 20; trial++ {
		u := randomUtil(rng)
		if err := m.PredictAll(u, configs, dst); err != nil {
			t.Fatal(err)
		}
		for i, cfg := range configs {
			want, err := m.Predict(u, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d cfg %v: PredictAll %x, Predict %x (not bitwise equal)",
					trial, cfg, dst[i], want)
			}
		}
	}
}

// TestRelTimeFlatMatchesEstimateRelativeTime pins the flattened roofline to
// the map path bitwise, including the idle (bound ≤ 0) branch.
func TestRelTimeFlatMatchesEstimateRelativeTime(t *testing.T) {
	dev := hw.GTXTitanX()
	ref := dev.DefaultConfig()
	rng := stats.NewRNG(3)
	utils := []Utilization{{}, {hw.SP: 0.9}, {hw.DRAM: 0.8}}
	for i := 0; i < 10; i++ {
		utils = append(utils, randomUtil(rng))
	}
	for _, u := range utils {
		uf := flattenUtil(u)
		for _, cfg := range dev.AllConfigs() {
			want := EstimateRelativeTime(u, ref, cfg)
			got := relTimeFlat(&uf, ref, cfg)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("u=%v cfg=%v: relTimeFlat %x, want %x", u, cfg, got, want)
			}
		}
	}
}

// TestSurfaceMatchesPointwise pins every surface column to the historical
// per-point computation: Predict, EstimateRelativeTime, and the
// relEnergy/EDP derivations in their original association.
func TestSurfaceMatchesPointwise(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 4)
	ref := m.Ref
	rng := stats.NewRNG(5)
	u := randomUtil(rng)

	s, err := Surfaces.Get(context.Background(), m, dev, ref, u)
	if err != nil {
		t.Fatal(err)
	}
	refPower, err := m.Predict(u, ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(s.RefPower) != math.Float64bits(refPower) {
		t.Fatalf("RefPower %x, want %x", s.RefPower, refPower)
	}
	if s.Len() != len(dev.AllConfigs()) {
		t.Fatalf("surface has %d points, ladder has %d", s.Len(), len(dev.AllConfigs()))
	}
	for i, cfg := range s.Configs {
		pw, err := m.Predict(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := EstimateRelativeTime(u, ref, cfg)
		relEnergy := pw * rt / refPower
		relEDP := relEnergy * rt
		if math.Float64bits(s.PowerW[i]) != math.Float64bits(pw) {
			t.Fatalf("%v: PowerW %x, want %x", cfg, s.PowerW[i], pw)
		}
		if math.Float64bits(s.RelTime[i]) != math.Float64bits(rt) {
			t.Fatalf("%v: RelTime %x, want %x", cfg, s.RelTime[i], rt)
		}
		if math.Float64bits(s.RelEnergy[i]) != math.Float64bits(relEnergy) {
			t.Fatalf("%v: RelEnergy %x, want %x", cfg, s.RelEnergy[i], relEnergy)
		}
		if math.Float64bits(s.RelEDP[i]) != math.Float64bits(relEDP) {
			t.Fatalf("%v: RelEDP %x, want %x", cfg, s.RelEDP[i], relEDP)
		}
		if j, ok := s.Point(cfg); !ok || j != i {
			t.Fatalf("%v: Point index %d/%v, want %d", cfg, j, ok, i)
		}
	}
}

// TestSurfaceCacheMemoization checks the hit path returns the same
// immutable instance, and that generation bumps invalidate it.
func TestSurfaceCacheMemoization(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 6)
	u := Utilization{hw.SP: 0.5, hw.DRAM: 0.25}
	c := NewSurfaceCache(8)
	ctx := context.Background()

	s1, err := c.Get(ctx, m, dev, m.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Get(ctx, m, dev, m.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("warm Get returned a different surface instance")
	}

	// Equal-valued but distinct utilization map: still a hit (flattened key).
	s3, err := c.Get(ctx, m, dev, m.Ref, Utilization{hw.SP: 0.5, hw.DRAM: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Fatal("equal utilization did not hit the cache")
	}

	// In-place mutation + invalidation: new generation, fresh surface.
	m.OmegaMem *= 1.5
	m.InvalidateSurfaces()
	s4, err := c.Get(ctx, m, dev, m.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	if s4 == s1 {
		t.Fatal("InvalidateSurfaces did not invalidate the cached surface")
	}
	if math.Float64bits(s4.PowerW[0]) == math.Float64bits(s1.PowerW[0]) {
		t.Fatal("post-invalidation surface reused stale predictions")
	}

	// A second model never shares generations, hence never shares entries.
	m2 := surfaceTestModel(dev, 6)
	s5, err := c.Get(ctx, m2, dev, m2.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	if s5 == s4 || s5 == s1 {
		t.Fatal("distinct models shared a cached surface")
	}
}

// TestSurfaceCacheEviction checks the capacity bound: stale generations are
// dropped first, and the shard survives overflow of live entries.
func TestSurfaceCacheEviction(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 7)
	c := NewSurfaceCache(1)
	ctx := context.Background()
	rng := stats.NewRNG(8)
	for i := 0; i < 64; i++ {
		if _, err := c.Get(ctx, m, dev, m.Ref, randomUtil(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > surfaceShards {
		t.Fatalf("cache grew to %d entries despite per-shard capacity 1", n)
	}
	// Entries from an invalidated generation are reclaimed on overflow.
	m.InvalidateSurfaces()
	for i := 0; i < 64; i++ {
		if _, err := c.Get(ctx, m, dev, m.Ref, randomUtil(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > surfaceShards {
		t.Fatalf("cache grew to %d entries after invalidation", n)
	}
}

// TestSurfaceCacheCanceledContext checks that cancellation surfaces as an
// error on both the cold and warm paths, and is never cached.
func TestSurfaceCacheCanceledContext(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 9)
	u := Utilization{hw.SP: 0.4}
	c := NewSurfaceCache(8)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := c.Get(canceled, m, dev, m.Ref, u); err == nil {
		t.Fatal("cold Get with canceled context succeeded")
	}
	if c.Len() != 0 {
		t.Fatal("canceled computation was cached")
	}
	if _, err := c.Get(context.Background(), m, dev, m.Ref, u); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(canceled, m, dev, m.Ref, u); err == nil {
		t.Fatal("warm Get with canceled context succeeded")
	}
}

// TestSurfaceCachePredictAllocFree is the allocation regression test for
// the cached predict path: after warm-up, Predict performs zero heap
// allocations (ISSUE acceptance criterion).
func TestSurfaceCachePredictAllocFree(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 10)
	u := Utilization{hw.SP: 0.6, hw.DRAM: 0.4}
	cfg := dev.AllConfigs()[3]
	c := NewSurfaceCache(8)
	ctx := context.Background()
	if _, err := c.Predict(ctx, m, dev, m.Ref, u, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Predict(ctx, m, dev, m.Ref, u, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm cached Predict allocates %.1f/op, want 0", allocs)
	}
}

// TestSurfaceCacheConcurrent hammers one cache from many goroutines over a
// small key set; every caller must observe the same instance per key. Run
// under -race this doubles as the data-race check for the sharded maps.
func TestSurfaceCacheConcurrent(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 11)
	c := NewSurfaceCache(16)
	utils := []Utilization{
		{hw.SP: 0.1}, {hw.SP: 0.2}, {hw.DRAM: 0.3}, {hw.Int: 0.4, hw.DRAM: 0.5},
	}
	const workers = 8
	got := make([][]*Surface, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*Surface, len(utils))
			for rep := 0; rep < 50; rep++ {
				for i, u := range utils {
					s, err := c.Get(context.Background(), m, dev, m.Ref, u)
					if err != nil {
						t.Error(err)
						return
					}
					if got[w][i] == nil {
						got[w][i] = s
					} else if got[w][i] != s {
						t.Errorf("worker %d key %d: surface instance changed", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range utils {
			if got[w][i] != got[0][i] {
				t.Fatalf("workers 0 and %d observed different surfaces for key %d", w, i)
			}
		}
	}
}

// TestSurfaceAppendPowerTextRace races the first AppendPowerText calls on
// one surface. Every caller must get the same text, equal to formatting
// PowerW directly with shortest round-trip decimals. Run with -race.
func TestSurfaceAppendPowerTextRace(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 23)
	s, err := NewSurfaceCache(4).Get(context.Background(), m, dev, dev.DefaultConfig(),
		Utilization{hw.SP: 0.12345678901234567, hw.DRAM: 0.9876543210987654, hw.Int: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, p := range s.PowerW {
		if i > 0 {
			want = append(want, ',')
		}
		want = strconv.AppendFloat(want, p, 'g', -1, 64)
	}

	const callers = 8
	got := make([][]byte, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = s.AppendPowerText([]byte("prefix:"))
		}(g)
	}
	close(start)
	wg.Wait()
	for g, text := range got {
		if string(text) != "prefix:"+string(want) {
			t.Fatalf("caller %d got %s, want prefix:%s", g, text, want)
		}
	}
	if again := s.AppendPowerText(nil); string(again) != string(want) {
		t.Fatalf("cached text %s, want %s", again, want)
	}
}
