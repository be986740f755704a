package core

import (
	"context"
	"math"
	"testing"

	"gpupower/internal/hw"
	"gpupower/internal/linalg"
	"gpupower/internal/stats"
)

// referenceDesign builds the full step-1/step-3 design the historical way:
// one designRowInto row per (configuration, benchmark), configuration-major,
// against the measured power.
func referenceDesign(d *Dataset, volt *VoltageTable, configIdx []int) (*linalg.Matrix, []float64, error) {
	nb := len(d.Benchmarks)
	rows := nb * len(configIdx)
	a := linalg.NewMatrix(rows, nParams)
	b := make([]float64, rows)
	row := make([]float64, nParams)
	for k, fi := range configIdx {
		cfg := d.Configs[fi]
		vc, vm, err := volt.At(cfg)
		if err != nil {
			return nil, nil, err
		}
		r := k * nb
		for bi, bench := range d.Benchmarks {
			designRowInto(row, bench.Util, cfg, vc, vm)
			a.SetRow(r, row)
			b[r] = d.Power[bi][fi]
			r++
		}
	}
	return a, b, nil
}

// referenceSolveX is the historical step-1/step-3 path: the full design
// solved with the allocating NNLS entry point.
func referenceSolveX(d *Dataset, volt *VoltageTable, configIdx []int) ([]float64, error) {
	a, b, err := referenceDesign(d, volt, configIdx)
	if err != nil {
		return nil, err
	}
	return linalg.NNLS(a, b)
}

// referenceTrainingSSE is the historical SSE evaluation: a designRowInto
// row per (config, benchmark) folded against x in index order, partials
// folded in configuration order.
func referenceTrainingSSE(d *Dataset, volt *VoltageTable, x []float64) (float64, error) {
	row := make([]float64, nParams)
	var sse float64
	for fi, cfg := range d.Configs {
		vc, vm, err := volt.At(cfg)
		if err != nil {
			return 0, err
		}
		var s float64
		for bi, bench := range d.Benchmarks {
			designRowInto(row, bench.Util, cfg, vc, vm)
			pred := 0.0
			for j, v := range row {
				pred += v * x[j]
			}
			diff := d.Power[bi][fi] - pred
			s += diff * diff
		}
		_ = fi
		sse += s
	}
	return sse, nil
}

// perturbedVoltages builds a deterministic non-trivial voltage table so the
// equivalence check exercises the incremental rescaling away from V̄ ≡ 1.
func perturbedVoltages(d *Dataset, seed uint64) *VoltageTable {
	rng := stats.NewRNG(seed)
	volt := NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
	for mi := range volt.VCore {
		for ci := range volt.VCore[mi] {
			volt.VCore[mi][ci] = 0.8 + 0.4*rng.Float64()
			volt.VMem[mi][ci] = 0.8 + 0.4*rng.Float64()
		}
	}
	return volt
}

// TestCompressedDesignMatchesFullDesign pins the compressed step-1/step-3
// system (DESIGN.md §10.2) to the full design built row by row with
// designRowInto: the same normal equations, the same NNLS tolerance scale
// bit for bit, the same solution and support as the historical solve, and
// the KKT conditions on the original system. The cases cover the
// production shapes plus the degenerate ones: nb ≤ nBase (no
// factorization), the V̄ ≡ 1 ablation (β0 and β2 columns identical) and a
// single memory level (β2 and β3 columns collinear). One workspace is
// reused across the cases of a dataset, as fleet fitting does.
func TestCompressedDesignMatchesFullDesign(t *testing.T) {
	gtx := syntheticDataset(defaultSyntheticTruth(), 24, 2.0, 7)
	small := syntheticDataset(defaultSyntheticTruth(), 5, 2.0, 13)
	k40 := defaultSyntheticTruth()
	k40.dev = hw.TeslaK40c()
	k40.vcore = func(f float64) float64 { return 0.85 + 0.15*f/875 }
	single := syntheticDataset(k40, 24, 2.0, 5)

	allOf := func(d *Dataset) []int {
		all := make([]int, len(d.Configs))
		for i := range all {
			all[i] = i
		}
		return all
	}
	initOf := func(d *Dataset) []int {
		init, err := initialConfigs(d)
		if err != nil {
			t.Fatal(err)
		}
		return init
	}
	unit := func(d *Dataset) *VoltageTable {
		return NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
	}

	cases := []struct {
		name string
		d    *Dataset
		volt *VoltageTable
		idx  []int
	}{
		{"unit-voltages/init-subset", gtx, unit(gtx), initOf(gtx)},
		{"perturbed/all-configs", gtx, perturbedVoltages(gtx, 3), allOf(gtx)},
		{"perturbed2/all-configs", gtx, perturbedVoltages(gtx, 11), allOf(gtx)},
		{"perturbed2/init-subset", gtx, perturbedVoltages(gtx, 11), initOf(gtx)},
		{"unit-voltages-ablation/all-configs", gtx, unit(gtx), allOf(gtx)},
		{"nb-le-8/perturbed/all-configs", small, perturbedVoltages(small, 3), allOf(small)},
		{"nb-le-8/unit-voltages/init-subset", small, unit(small), initOf(small)},
		{"single-mem-level/perturbed/all-configs", single, perturbedVoltages(single, 3), allOf(single)},
		{"single-mem-level/unit-voltages/init-subset", single, unit(single), initOf(single)},
	}
	wss := map[*Dataset]*estimatorWorkspace{}
	x := make([]float64, nParams)
	for _, tc := range cases {
		ws := wss[tc.d]
		if ws == nil {
			ws = newEstimatorWorkspace(tc.d)
			wss[tc.d] = ws
		}
		a, b, err := referenceDesign(tc.d, tc.volt, tc.idx)
		if err != nil {
			t.Fatalf("%s: referenceDesign: %v", tc.name, err)
		}
		scale, err := ws.assemble(tc.volt, tc.idx)
		if err != nil {
			t.Fatalf("%s: assemble: %v", tc.name, err)
		}
		if want := a.MaxAbs() * linalg.Norm2(b); math.Float64bits(scale) != math.Float64bits(want) {
			t.Fatalf("%s: tolerance scale %x, full design's ‖A‖max·‖b‖ %x", tc.name, scale, want)
		}
		if rows := ws.k * len(tc.idx); ws.s.Rows() != rows {
			t.Fatalf("%s: compressed system has %d rows, want %d", tc.name, ws.s.Rows(), rows)
		}
		checkSameNormalEquations(t, tc.name, ws.s, ws.sb[:ws.s.Rows()], a, b)

		want, err := referenceSolveX(tc.d, tc.volt, tc.idx)
		if err != nil {
			t.Fatalf("%s: referenceSolveX: %v", tc.name, err)
		}
		if err := ws.solveXInto(x, tc.volt, tc.idx); err != nil {
			t.Fatalf("%s: solveXInto: %v", tc.name, err)
		}
		var xmax float64
		for _, v := range want {
			xmax = math.Max(xmax, math.Abs(v))
		}
		for j := range want {
			if (x[j] > 0) != (want[j] > 0) {
				t.Fatalf("%s: support differs at %d: compressed %v, full design %v", tc.name, j, x, want)
			}
			if math.Abs(x[j]-want[j]) > 1e-9*xmax {
				t.Fatalf("%s: x[%d] = %.17g, full design %.17g", tc.name, j, x[j], want[j])
			}
		}
		checkDesignKKT(t, tc.name, a, b, x)

		wantSSE, err := referenceTrainingSSE(tc.d, tc.volt, x)
		if err != nil {
			t.Fatalf("%s: referenceTrainingSSE: %v", tc.name, err)
		}
		gotSSE, err := ws.trainingSSE(tc.volt, x)
		if err != nil {
			t.Fatalf("%s: trainingSSE: %v", tc.name, err)
		}
		if math.Float64bits(gotSSE) != math.Float64bits(wantSSE) {
			t.Fatalf("%s: SSE = %x, want %x (not bitwise equal)", tc.name, gotSSE, wantSSE)
		}
	}
}

// checkSameNormalEquations asserts SᵀS = AᵀA and Sᵀy = Aᵀb to 1e-12
// relative to the largest entry of each.
func checkSameNormalEquations(t *testing.T, name string, s *linalg.Matrix, y []float64, a *linalg.Matrix, b []float64) {
	t.Helper()
	gram := func(m *linalg.Matrix, v []float64) ([]float64, []float64) {
		mtm := make([]float64, nParams*nParams)
		mtv := make([]float64, nParams)
		for r := 0; r < m.Rows(); r++ {
			row := m.RowView(r)
			for i := 0; i < nParams; i++ {
				mtv[i] += row[i] * v[r]
				for j := 0; j < nParams; j++ {
					mtm[i*nParams+j] += row[i] * row[j]
				}
			}
		}
		return mtm, mtv
	}
	close := func(what string, got, want []float64) {
		var mx, diff float64
		for i := range want {
			mx = math.Max(mx, math.Abs(want[i]))
			diff = math.Max(diff, math.Abs(got[i]-want[i]))
		}
		if diff > 1e-12*mx {
			t.Fatalf("%s: %s differs by %g (relative %g)", name, what, diff, diff/mx)
		}
	}
	sts, sty := gram(s, y)
	ata, atb := gram(a, b)
	close("SᵀS vs AᵀA", sts, ata)
	close("Sᵀy vs Aᵀb", sty, atb)
}

// checkDesignKKT asserts the NNLS optimality conditions of x on the full
// design (A, b): x ≥ 0, a zero gradient on the free variables and a
// non-positive one on the clamped variables, relative to ‖A‖max·‖b‖.
func checkDesignKKT(t *testing.T, name string, a *linalg.Matrix, b, x []float64) {
	t.Helper()
	r, err := linalg.Residual(a, x, b)
	if err != nil {
		t.Fatal(err)
	}
	g, err := a.TMulVec(r)
	if err != nil {
		t.Fatal(err)
	}
	tol := 1e-8 * a.MaxAbs() * linalg.Norm2(b)
	for j := range x {
		switch {
		case x[j] < 0:
			t.Fatalf("%s: x[%d] = %g < 0", name, j, x[j])
		case x[j] > 0 && math.Abs(g[j]) > tol:
			t.Fatalf("%s: free variable %d has gradient %g (tol %g)", name, j, g[j], tol)
		case x[j] == 0 && g[j] > tol:
			t.Fatalf("%s: clamped variable %d wants to grow (gradient %g, tol %g)", name, j, g[j], tol)
		}
	}
}

// TestSolveVoltagesBasePrecomputes pins the flattened A/B precomputes of
// step 2 to the historical map-walking accumulation.
func TestSolveVoltagesBasePrecomputes(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 16, 1.0, 5)
	ws := newEstimatorWorkspace(d)
	rng := stats.NewRNG(9)
	x := make([]float64, nParams)
	for j := range x {
		x[j] = rng.Float64()
	}
	// Run one step-2 solve to fill ws.A/ws.B.
	volt := NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
	opts := DefaultEstimatorOptions()
	if err := ws.solveVoltages(x, volt, opts); err != nil {
		t.Fatal(err)
	}
	for bi, bench := range d.Benchmarks {
		wantA := x[1]
		for i, c := range CoreOmegaOrder {
			wantA += x[4+i] * bench.Util[c]
		}
		wantB := x[3] + x[10]*bench.Util[hw.DRAM]
		if math.Float64bits(ws.A[bi]) != math.Float64bits(wantA) {
			t.Fatalf("A[%d] = %x, want %x", bi, ws.A[bi], wantA)
		}
		if math.Float64bits(ws.B[bi]) != math.Float64bits(wantB) {
			t.Fatalf("B[%d] = %x, want %x", bi, ws.B[bi], wantB)
		}
	}
}

// TestSolveXIntoSubsetAllocFree pins the step-1 subset path: solving over
// initialConfigs (fewer rows than the full ladder's system) must run on the
// workspace's buffers without allocating a fresh matrix or right-hand side
// per solve.
func TestSolveXIntoSubsetAllocFree(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 24, 2.0, 7)
	ws := newEstimatorWorkspace(d)
	init, err := initialConfigs(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(init) == len(d.Configs) {
		t.Fatalf("initialConfigs covers the full ladder; subset path not exercised")
	}
	volt := NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
	x := make([]float64, nParams)
	// Warm once: the first subset solve memoizes the subset's ‖b‖.
	if err := ws.solveXInto(x, volt, init); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ws.solveXInto(x, volt, init); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("subset solveXInto allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestEstimateMatchesReferenceEngine cross-checks the production engine
// against the preserved pre-restructuring engine (estimate_reference.go) on
// a synthetic dataset. The engines differ in arithmetic (compressed vs full
// design, blocked vs Hypot-chain QR) and in the step-2 search (exact line
// searches plus Newton vs golden section to 1e-6), so agreement is
// tolerance-based. On this dataset the divergence is 7.9e-5 of the largest
// β on parameters and 2.4e-5 on voltages, an order of magnitude inside the
// bounds. The seed-42 device rigs diverge further along the weakly
// identified static split, up to 4.2e-3 of the largest β (Tesla K40c).
func TestEstimateMatchesReferenceEngine(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 24, 2.0, 7)
	ref, err := EstimateReference(context.Background(), d, nil)
	if err != nil {
		t.Fatalf("EstimateReference: %v", err)
	}
	got, err := Estimate(context.Background(), d, nil)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}

	if got.Converged != ref.Converged {
		t.Fatalf("Converged = %v, reference %v (after %d vs %d iterations)",
			got.Converged, ref.Converged, got.Iterations, ref.Iterations)
	}

	var scale float64
	for _, b := range ref.Beta {
		scale = math.Max(scale, math.Abs(b))
	}
	for _, w := range ref.OmegaCore {
		scale = math.Max(scale, math.Abs(w))
	}
	scale = math.Max(scale, math.Abs(ref.OmegaMem))

	for i := range ref.Beta {
		if diff := math.Abs(got.Beta[i] - ref.Beta[i]); diff > 1e-3*scale {
			t.Errorf("β%d = %v, reference %v (diff %g)", i, got.Beta[i], ref.Beta[i], diff)
		}
	}
	for c, w := range ref.OmegaCore {
		if diff := math.Abs(got.OmegaCore[c] - w); diff > 1e-3*scale {
			t.Errorf("ω_%s = %v, reference %v (diff %g)", c, got.OmegaCore[c], w, diff)
		}
	}
	if diff := math.Abs(got.OmegaMem - ref.OmegaMem); diff > 1e-3*scale {
		t.Errorf("ω_mem = %v, reference %v (diff %g)", got.OmegaMem, ref.OmegaMem, diff)
	}
	for mi := range ref.Voltages.VCore {
		for ci := range ref.Voltages.VCore[mi] {
			dc := math.Abs(got.Voltages.VCore[mi][ci] - ref.Voltages.VCore[mi][ci])
			dm := math.Abs(got.Voltages.VMem[mi][ci] - ref.Voltages.VMem[mi][ci])
			if dc > 1e-4 || dm > 1e-4 {
				t.Errorf("voltage (%d,%d): (%v, %v), reference (%v, %v)",
					mi, ci, got.Voltages.VCore[mi][ci], got.Voltages.VMem[mi][ci],
					ref.Voltages.VCore[mi][ci], ref.Voltages.VMem[mi][ci])
			}
		}
	}
}

// TestDesignRowIntoAllocFree is the allocation regression test for the
// per-row fill primitive shared by the reference path and external callers.
func TestDesignRowIntoAllocFree(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 2, 0, 1)
	u := d.Benchmarks[0].Util
	cfg := d.Ref
	dst := make([]float64, nParams)
	allocs := testing.AllocsPerRun(100, func() {
		designRowInto(dst, u, cfg, 1.05, 0.95)
	})
	if allocs != 0 {
		t.Fatalf("designRowInto allocates %.1f/op, want 0", allocs)
	}
}
