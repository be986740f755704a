package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// step2Problem is a synthetic instance of the step-2 objective
// Σ_b (D_b − β0·vc − A_b·fc·vc² − β2·vm − B_b·fm·vm²)², the sum of squares
// the compiled Quartic2D expands into 13 monomial coefficients.
type step2Problem struct {
	beta0, beta2, fc, fm float64
	A, B, D              []float64
}

func randStep2(rng *rand.Rand, nb int) step2Problem {
	p := step2Problem{
		beta0: 20 + 30*rng.Float64(),
		beta2: 5 + 10*rng.Float64(),
		fc:    0.5 + rng.Float64(),
		fm:    0.5 + rng.Float64(),
		A:     make([]float64, nb),
		B:     make([]float64, nb),
		D:     make([]float64, nb),
	}
	for b := 0; b < nb; b++ {
		p.A[b] = 10 + 40*rng.Float64()
		p.B[b] = 2 + 10*rng.Float64()
		// Targets near the model at (vc, vm) ≈ (1, 1) plus noise, so the
		// minimum sits inside the voltage box like a real step-2 solve.
		p.D[b] = p.beta0 + p.fc*p.A[b] + p.beta2 + p.fm*p.B[b] + rng.NormFloat64()
	}
	return p
}

// direct evaluates the objective the pre-compilation way: one O(nb) loop.
func (p step2Problem) direct(vc, vm float64) float64 {
	var s float64
	for b := range p.D {
		pred := p.beta0*vc + vc*vc*p.fc*p.A[b] + p.beta2*vm + vm*vm*p.fm*p.B[b]
		diff := p.D[b] - pred
		s += diff * diff
	}
	return s
}

// compile expands the problem into monomial coefficients with the same
// moment algebra solveVoltages uses.
func (p step2Problem) compile() Quartic2D {
	var sumA, sumB, sumA2, sumB2, sumAB float64
	var sumD, sumD2, sumDA, sumDB float64
	for b := range p.D {
		sumA += p.A[b]
		sumB += p.B[b]
		sumA2 += p.A[b] * p.A[b]
		sumB2 += p.B[b] * p.B[b]
		sumAB += p.A[b] * p.B[b]
		sumD += p.D[b]
		sumD2 += p.D[b] * p.D[b]
		sumDA += p.D[b] * p.A[b]
		sumDB += p.D[b] * p.B[b]
	}
	nbf := float64(len(p.D))
	return Quartic2D{
		C00: sumD2,
		C10: -2 * p.beta0 * sumD,
		C20: nbf*p.beta0*p.beta0 - 2*p.fc*sumDA,
		C30: 2 * p.beta0 * p.fc * sumA,
		C40: p.fc * p.fc * sumA2,
		C01: -2 * p.beta2 * sumD,
		C02: nbf*p.beta2*p.beta2 - 2*p.fm*sumDB,
		C03: 2 * p.beta2 * p.fm * sumB,
		C04: p.fm * p.fm * sumB2,
		C11: 2 * nbf * p.beta0 * p.beta2,
		C12: 2 * p.beta0 * p.fm * sumB,
		C21: 2 * p.beta2 * p.fc * sumA,
		C22: 2 * p.fc * p.fm * sumAB,
	}
}

// TestQuartic2DEvalMatchesDirect checks the monomial expansion against the
// direct sum of squares across the voltage box. The two forms order their
// floating-point work differently, so agreement is relative, not bitwise.
func TestQuartic2DEvalMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		p := randStep2(rng, 8+rng.Intn(80))
		q := p.compile()
		for i := 0; i < 50; i++ {
			vc := 0.5 + rng.Float64()
			vm := 0.5 + rng.Float64()
			want := p.direct(vc, vm)
			got := q.Eval(vc, vm)
			if diff := math.Abs(got - want); diff > 1e-8*(1+math.Abs(want)) {
				t.Fatalf("trial %d: Eval(%v, %v) = %v, direct %v (diff %g)",
					trial, vc, vm, got, want, diff)
			}
		}
	}
}

// gradScale is the magnitude scale of the surface's gradient at (x, y): the
// sum of its terms' absolute values, against which a stationarity residual
// is judged (the terms cancel at a minimum).
func gradScale(q *Quartic2D, x, y float64) (sx, sy float64) {
	ax, ay := math.Abs(x), math.Abs(y)
	sx = math.Abs(q.C10) + 2*math.Abs(q.C20)*ax + 3*math.Abs(q.C30)*ax*ax + 4*math.Abs(q.C40)*ax*ax*ax +
		math.Abs(q.C11)*ay + math.Abs(q.C12)*ay*ay + 2*math.Abs(q.C21)*ax*ay + 2*math.Abs(q.C22)*ax*ay*ay
	sy = math.Abs(q.C01) + 2*math.Abs(q.C02)*ay + 3*math.Abs(q.C03)*ay*ay + 4*math.Abs(q.C04)*ay*ay*ay +
		math.Abs(q.C11)*ax + 2*math.Abs(q.C12)*ax*ay + math.Abs(q.C21)*ax*ax + 2*math.Abs(q.C22)*ax*ax*ay
	return sx, sy
}

// checkProjectedStationary asserts the projected gradient vanishes at
// (x, y) on the box: zero in an interior coordinate, pointing out of the
// box at a bound.
func checkProjectedStationary(t *testing.T, name string, q *Quartic2D, x, y, lo, hi, rel float64) {
	t.Helper()
	gx, gy, _, _, _ := q.gradHess(x, y)
	sx, sy := gradScale(q, x, y)
	check := func(axis string, v, g, scale float64) {
		tol := rel * scale
		switch {
		case v <= lo && g >= -tol, v >= hi && g <= tol, math.Abs(g) <= tol:
		default:
			t.Fatalf("%s: projected %s-gradient %g at %v (tol %g)", name, axis, g, v, tol)
		}
	}
	check("x", x, gx, sx)
	check("y", y, gy, sy)
}

// TestQuartic2DMinimizeNoWorseThanMinimize2D checks the exact-line-search
// descent against the generic golden-section minimizer on the same
// objectives: its objective is no worse, the projected gradient vanishes
// at the point it returns, and repeated calls return the same bits.
func TestQuartic2DMinimizeNoWorseThanMinimize2D(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		p := randStep2(rng, 8+rng.Intn(80))
		q := p.compile()
		// Alternate the production box with a narrow one that puts the
		// minimum on a bound.
		lo, hi := 0.5, 1.8
		if trial%2 == 1 {
			lo, hi = 0.5, 0.9
		}
		const tol = 1e-6
		wantVc, wantVm, err := Minimize2D(func(x, y float64) float64 { return q.Eval(x, y) }, lo, hi, lo, hi, tol)
		if err != nil {
			t.Fatalf("trial %d: Minimize2D: %v", trial, err)
		}
		gotVc, gotVm, err := q.Minimize(lo, hi, lo, hi, tol)
		if err != nil {
			t.Fatalf("trial %d: Quartic2D.Minimize: %v", trial, err)
		}
		fw, fg := q.Eval(wantVc, wantVm), q.Eval(gotVc, gotVm)
		if fg > fw+1e-12*math.Abs(fw) {
			t.Fatalf("trial %d: objective %.17g at (%v, %v), Minimize2D %.17g at (%v, %v)",
				trial, fg, gotVc, gotVm, fw, wantVc, wantVm)
		}
		// At the returned point the Newton decrement is below Eval's
		// rounding (the step is then rejected), which leaves a gradient of
		// ~1e-9 of its term scale; 1e-8 is the stationarity bound.
		checkProjectedStationary(t, fmt.Sprintf("trial %d", trial), &q, gotVc, gotVm, lo, hi, 1e-8)
		againVc, againVm, _ := q.Minimize(lo, hi, lo, hi, tol)
		if math.Float64bits(againVc) != math.Float64bits(gotVc) || math.Float64bits(againVm) != math.Float64bits(gotVm) {
			t.Fatalf("trial %d: repeated call returned (%v, %v), first (%v, %v)", trial, againVc, againVm, gotVc, gotVm)
		}
	}
}

// TestQuartic1DMinimize checks the exact univariate search on shapes with
// known minimizers.
func TestQuartic1DMinimize(t *testing.T) {
	cases := []struct {
		name   string
		c      quartic1D
		lo, hi float64
		want   float64
	}{
		// (t − 1.2)² + 3: interior minimum of a convex quadratic.
		{"interior", quartic1D{1.44 + 3, -2.4, 1, 0, 0}, 0.5, 1.8, 1.2},
		// (t − 2)⁴ on [0.5, 1.8]: decreasing throughout, minimum at hi.
		{"boundary-hi", quartic1D{16, -32, 24, -8, 1}, 0.5, 1.8, 1.8},
		// (t − 0.2)² on [0.5, 1.8]: minimum at lo.
		{"boundary-lo", quartic1D{0.04, -0.4, 1, 0, 0}, 0.5, 1.8, 0.5},
		// c′(t) = 4(t − 0.7)(t − r)(t − 1.6): two basins, at 0.7 and 1.6,
		// split by a hump at r. The wider lobe of c′ wins: r = 1.3 makes
		// the left basin lower, r = 1.0 the right one.
		{"two-basins-left", fromDerivRoots(0.7, 1.3, 1.6), 0.5, 1.8, 0.7},
		{"two-basins-right", fromDerivRoots(0.7, 1.0, 1.6), 0.5, 1.8, 1.6},
		// a4 = 0: the cubic t³ − 3t on [−0.5, 3] has its local minimum at
		// t = 1 (c′ = 3t² − 3), lower than both endpoints.
		{"a4-zero", quartic1D{0, -3, 0, 1, 0}, -0.5, 3, 1},
		// a4 = a3 = 0, a2 = 0: linear, minimum at the end it descends to.
		{"linear", quartic1D{2, -1, 0, 0, 0}, 0.5, 1.8, 1.8},
		// (t − 1)⁴: c′ has a triple root and c″ a double root at 1.
		{"double-root", quartic1D{1, -4, 6, -4, 1}, 0.5, 1.8, 1},
		// c′(t) = 4(t − 0.8)²(t − 1.5): a flat inflection at 0.8 (a double
		// root of c′, not a minimum) and the minimum at 1.5.
		{"double-root-inflection", fromDerivRoots(0.8, 0.8, 1.5), 0.5, 1.8, 1.5},
	}
	for _, tc := range cases {
		got := tc.c.minimize(tc.lo, tc.hi)
		if math.Abs(got-tc.want) > 1e-6 {
			t.Errorf("%s: minimize = %.12g, want %.12g", tc.name, got, tc.want)
		}
		// Values are compared to 1e-12 of the polynomial's term scale: the
		// expanded form rounds at that level near a minimum.
		if bm := bruteMin(&tc.c, tc.lo, tc.hi); tc.c.eval(got) > tc.c.eval(bm)+1e-12*termScale(&tc.c, got) {
			t.Errorf("%s: value %.17g at %v above the grid minimum %.17g at %v", tc.name, tc.c.eval(got), got, tc.c.eval(bm), bm)
		}
	}
}

// termScale is Σ|c_i|·|t|^i, the rounding scale of c.eval(t).
func termScale(c *quartic1D, t float64) float64 {
	var s, p float64 = 0, 1
	for _, ci := range c {
		s += math.Abs(ci) * p
		p *= math.Abs(t)
	}
	return s
}

// fromDerivRoots is the quartic with c′(t) = 4(t − r1)(t − r2)(t − r3) and
// c(0) = 0.
func fromDerivRoots(r1, r2, r3 float64) quartic1D {
	e1 := r1 + r2 + r3
	e2 := r1*r2 + r1*r3 + r2*r3
	e3 := r1 * r2 * r3
	// c′ = 4t³ − 4e1·t² + 4e2·t − 4e3
	return quartic1D{0, -4 * e3, 2 * e2, -4 * e1 / 3, 1}
}

// bruteMin scans a fine grid, then polishes with golden section, as an
// independent estimate of the global minimizer.
func bruteMin(c *quartic1D, lo, hi float64) float64 {
	const n = 20000
	best, fb := lo, c.eval(lo)
	for i := 1; i <= n; i++ {
		t := lo + (hi-lo)*float64(i)/n
		if f := c.eval(t); f < fb {
			best, fb = t, f
		}
	}
	h := (hi - lo) / n
	l, r := math.Max(lo, best-h), math.Min(hi, best+h)
	x, _ := Minimize1D(c.eval, l, r, 1e-13)
	if c.eval(x) < fb {
		return x
	}
	return best
}

// TestQuartic2DMinimizeAllocFree pins the step-2 solve allocation-free: the
// estimator runs one per configuration per iteration.
func TestQuartic2DMinimizeAllocFree(t *testing.T) {
	p := randStep2(rand.New(rand.NewSource(3)), 40)
	q := p.compile()
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := q.Minimize(0.5, 1.8, 0.5, 1.8, 1e-6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Quartic2D.Minimize allocates %.1f/op, want 0", allocs)
	}
}
