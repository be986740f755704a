package core

import (
	"context"
	"testing"

	"gpupower/internal/hw"
)

// TestColdSurfaceAllocsBounded is the allocation regression test for the
// cold DVFS-search path: a surface-cache miss — the cost every
// EvaluateOperatingPoints/FindBestConfig call paid before PR 4, and the
// cost the cluster simulator's decision-cache misses pay now. The compute
// rides the device's memoized Ladder()/LadderIndex and lays the four float
// columns into one backing array, so a full ladder evaluation is two
// allocations (Surface + backing) plus the amortized cache insert; the
// historical cold path was 11 allocs / 7.4 KB per op.
func TestColdSurfaceAllocsBounded(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 17)
	u := Utilization{hw.SP: 0.8, hw.DRAM: 0.4, hw.L2: 0.2, hw.Int: 0.1}
	ref := dev.DefaultConfig()
	c := NewSurfaceCache(64)
	ctx := context.Background()

	// Warm the per-device memoization (ladder + index) so the measurement
	// sees the steady state every later caller sees.
	if _, err := c.Get(ctx, m, dev, ref, u); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		m.InvalidateSurfaces() // force a full ladder recompute per run
		if _, err := c.Get(ctx, m, dev, ref, u); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 4
	if allocs > maxAllocs {
		t.Fatalf("cold surface compute allocates %.1f times per op, want <= %d", allocs, maxAllocs)
	}
}

// TestSurfaceAppendPowerTextAllocFree pins the dynamic half of
// AppendPowerText's //gpower:noalloc contract: after the first call
// formats the text, appending it into a buffer with room allocates
// nothing.
func TestSurfaceAppendPowerTextAllocFree(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 17)
	s, err := NewSurfaceCache(4).Get(context.Background(), m, dev, dev.DefaultConfig(),
		Utilization{hw.SP: 0.8, hw.DRAM: 0.4, hw.L2: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	buf := s.AppendPowerText(nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = s.AppendPowerText(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("warm AppendPowerText allocates %.1f objects per run; want 0", allocs)
	}
}
