package linalg

import (
	"math"
	"math/rand"
	"testing"

	"gpupower/internal/stats"
)

// TestNNLSBlockedSetRecovery is the regression test for the permanent-block
// bug: a variable whose inclusion transiently made the passive set singular
// used to be excluded from the candidate picks forever, even after the
// passive set changed and the collinearity disappeared. The transient
// singularity is simulated with an injected passive solver that fails
// exactly once (the way a QR rank check fails on a momentarily collinear
// submatrix, e.g. the all-V̄≡1 step-1 design), because at working precision
// a genuinely singular pick also has a sub-tolerance gradient.
func TestNNLSBlockedSetRecovery(t *testing.T) {
	// Columns: c0 = e1, c1 = e2, c2 = (3, 0.1, 1); b = (1, 2, −0.5).
	// Initial gradients (Aᵀb): w0 = 1, w1 = 2, w2 = 2.7 → c2 enters first.
	// The next pick is c1, whose solve we fail once → c1 is blocked.
	// Then c0 enters and the {c0, c2} fit drives x2 negative → c2 is
	// clipped out, the passive set shrinks, and the fixed algorithm
	// re-enables c1, reaching the true optimum x* = (1, 2, 0). The pre-fix
	// algorithm terminated at x = (1, 0, 0) with the KKT conditions
	// violated (w1 = 2 > 0 on a clamped variable).
	a, err := NewMatrixFromRows([][]float64{
		{1, 0, 3},
		{0, 1, 0.1},
		{0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, -0.5}

	failed := false
	flaky := func(a *Matrix, rhs []float64, passive []bool) ([]float64, error) {
		if !failed && passive[1] {
			failed = true
			return nil, ErrRankDeficient
		}
		return solvePassive(a, rhs, passive)
	}

	x, err := nnls(a, b, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("injected singularity never triggered; the test no longer exercises the blocked path")
	}
	want := []float64{1, 2, 0}
	for j := range want {
		if math.Abs(x[j]-want[j]) > 1e-9 {
			t.Fatalf("x = %v, want %v (blocked variable 1 not recovered)", x, want)
		}
	}
	// KKT check: the recovered point must leave no clamped variable with a
	// positive gradient.
	resid, err := Residual(a, x, b)
	if err != nil {
		t.Fatal(err)
	}
	w, err := a.TMulVec(resid)
	if err != nil {
		t.Fatal(err)
	}
	for j := range w {
		if x[j] == 0 && w[j] > 1e-8 {
			t.Fatalf("KKT violated at clamped variable %d: gradient %g", j, w[j])
		}
	}
}

// TestNNLSPersistentSingularityStaysBlocked pins the other side of the
// recovery rule: when the singularity is not transient (every solve
// including the variable fails), NNLS must still terminate and return the
// best point available without it, not loop or error out.
func TestNNLSPersistentSingularityStaysBlocked(t *testing.T) {
	a, err := NewMatrixFromRows([][]float64{
		{1, 0, 3},
		{0, 1, 0.1},
		{0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, -0.5}
	alwaysFail := func(a *Matrix, rhs []float64, passive []bool) ([]float64, error) {
		if passive[1] {
			return nil, ErrRankDeficient
		}
		return solvePassive(a, rhs, passive)
	}
	x, err := nnls(a, b, alwaysFail)
	if err != nil {
		t.Fatal(err)
	}
	if x[1] != 0 {
		t.Fatalf("x1 = %g, want 0 when its solves always fail", x[1])
	}
	for j, v := range x {
		if v < 0 {
			t.Fatalf("x[%d] = %g < 0", j, v)
		}
	}
}

func TestNNLSMatchesOLSWhenInterior(t *testing.T) {
	// When the unconstrained optimum is strictly positive, NNLS must agree
	// with ordinary least squares.
	a, _ := NewMatrixFromRows([][]float64{
		{1, 0},
		{0, 1},
		{1, 1},
	})
	b := []float64{1, 2, 3.1}
	ols, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ols {
		if !almostEq(ols[j], nn[j], 1e-8) {
			t.Fatalf("NNLS %v != OLS %v", nn, ols)
		}
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// Fit y = -1·x with x ≥ 0 forced: the coefficient must clamp at 0.
	a, _ := NewMatrixFromRows([][]float64{{1}, {2}, {3}})
	x, err := NNLS(a, []float64{-1, -2, -3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 {
		t.Fatalf("x = %v, want [0]", x)
	}
}

func TestNNLSNonNegativityProperty(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 100; trial++ {
		m, n := 12, 5
		a := NewMatrix(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Normal(0, 1))
			}
			b[i] = rng.Normal(0, 2)
		}
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range x {
			if v < 0 {
				t.Fatalf("trial %d: x[%d] = %g < 0", trial, j, v)
			}
		}
	}
}

// Property: the NNLS solution satisfies the KKT conditions — for passive
// variables the gradient of the residual is ~0; for clamped variables the
// gradient pushes toward negative values.
func TestNNLSKKT(t *testing.T) {
	rng := stats.NewRNG(23)
	for trial := 0; trial < 50; trial++ {
		m, n := 15, 4
		a := NewMatrix(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Normal(0, 1))
			}
			b[i] = rng.Normal(0, 1)
		}
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Residual(a, x, b)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			g := Dot(a.Col(j), r) // = -∂SSE/∂x_j / 2
			if x[j] > 1e-9 {
				if math.Abs(g) > 1e-6 {
					t.Fatalf("trial %d: passive var %d has gradient %g", trial, j, g)
				}
			} else if g > 1e-6 {
				t.Fatalf("trial %d: clamped var %d wants to grow (g=%g)", trial, j, g)
			}
		}
	}
}

func TestNNLSCollinearColumns(t *testing.T) {
	// Identical columns (the V̄≡1 static-split case): NNLS must return a
	// valid non-negative solution without hanging.
	a, _ := NewMatrixFromRows([][]float64{
		{1, 1, 2},
		{1, 1, 3},
		{1, 1, 4},
		{1, 1, 5},
	})
	b := []float64{10, 13, 16, 19}
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect fit exists: x0+x1 = 4, x2 = 3.
	ax, _ := a.MulVec(x)
	for i := range b {
		if !almostEq(ax[i], b[i], 1e-6) {
			t.Fatalf("fit %v vs %v", ax, b)
		}
	}
	for _, v := range x {
		if v < 0 {
			t.Fatalf("negative component in %v", x)
		}
	}
}

func TestNNLSZeroInput(t *testing.T) {
	a := NewMatrix(3, 2)
	x, err := NNLS(a, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("x = %v, want zeros", x)
	}
}

func TestNNLSRHSLengthMismatch(t *testing.T) {
	a := NewMatrix(3, 2)
	if _, err := NNLS(a, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// fullSystemNNLS runs the active set uncompressed: the injected passive
// solver routes SolveInto past the R-factor compression, so this is the
// Lawson–Hanson iteration on the original (A, b), with the workspace's own
// passive-solve arithmetic.
func fullSystemNNLS(t *testing.T, a *Matrix, b []float64) []float64 {
	t.Helper()
	x, err := nnls(a, b, solvePassive)
	if err != nil {
		t.Fatalf("full-system NNLS: %v", err)
	}
	return x
}

// checkKKT asserts the NNLS optimality conditions of x on the original
// (A, b): x ≥ 0, a zero gradient on the free variables and a non-positive
// one on the clamped variables, relative to ‖A‖max·‖b‖.
func checkKKT(t *testing.T, name string, a *Matrix, b, x []float64) {
	t.Helper()
	r, err := Residual(a, x, b)
	if err != nil {
		t.Fatal(err)
	}
	g, err := a.TMulVec(r)
	if err != nil {
		t.Fatal(err)
	}
	tol := 1e-8 * a.MaxAbs() * Norm2(b)
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

// checkSameSolution asserts that the compressed solve x and the full-system
// solve want have the same support and agree to within rel relative to
// ‖want‖∞.
func checkSameSolution(t *testing.T, name string, x, want []float64, rel float64) {
	t.Helper()
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for j := range want {
		if (x[j] > 0) != (want[j] > 0) {
			t.Fatalf("%s: support differs at %d: compressed %v, full system %v", name, j, x, want)
		}
		if math.Abs(x[j]-want[j]) > rel*scale {
			t.Fatalf("%s: x[%d] = %.17g, full system %.17g (rel tol %g of %g)", name, j, x[j], want[j], rel, scale)
		}
	}
}

// TestNNLSCompressedMatchesFullSystem is the differential test of the
// R-factor compression: SolveInto on a tall system must reach the solution
// the uncompressed active set (and the reference engine, NNLSRef) reaches
// on the original system.
func TestNNLSCompressedMatchesFullSystem(t *testing.T) {
	solve := func(a *Matrix, b []float64) []float64 {
		t.Helper()
		ws := NewNNLSWorkspace(a.Rows(), a.Cols())
		x := make([]float64, a.Cols())
		if err := ws.SolveInto(x, a, b); err != nil {
			t.Fatalf("SolveInto: %v", err)
		}
		return x
	}

	t.Run("random-tall", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(11)
			m := n + 1 + rng.Intn(120)
			a, b := randSystem(rng, m, n)
			x := solve(a, b)
			checkSameSolution(t, "random-tall", x, fullSystemNNLS(t, a, b), 1e-9)
			ref, err := NNLSRef(a, b)
			if err != nil {
				t.Fatal(err)
			}
			checkSameSolution(t, "random-tall vs NNLSRef", x, ref, 1e-9)
			checkKKT(t, "random-tall", a, b, x)
		}
	})

	t.Run("duplicate-columns", func(t *testing.T) {
		// The V̄ ≡ 1 ablation shape: the core and memory static columns are
		// both the all-ones column, so only their sum is identifiable. Both
		// engines must fit the data equally well and satisfy KKT; the split
		// between the twins is not pinned.
		rng := rand.New(rand.NewSource(37))
		for trial := 0; trial < 20; trial++ {
			m, n := 40+rng.Intn(60), 6
			a := NewMatrix(m, n)
			b := make([]float64, m)
			for i := 0; i < m; i++ {
				fc, fm, u := 0.5+rng.Float64(), 0.5+rng.Float64(), rng.Float64()
				row := []float64{1, fc, 1, fm, fc * u, fm * (1 - u)}
				a.SetRow(i, row)
				b[i] = 3 + 2*fc + fm + 4*fc*u + 0.01*rng.NormFloat64()
			}
			x := solve(a, b)
			full := fullSystemNNLS(t, a, b)
			checkKKT(t, "duplicate-columns", a, b, x)
			checkKKT(t, "duplicate-columns full system", a, b, full)
			if d := math.Abs((x[0] + x[2]) - (full[0] + full[2])); d > 1e-9*(full[0]+full[2]) {
				t.Fatalf("trial %d: static sum %g vs full system %g", trial, x[0]+x[2], full[0]+full[2])
			}
			checkSameSolution(t, "duplicate-columns identifiable part", x[3:], full[3:], 1e-9)
			if math.Abs(x[1]-full[1]) > 1e-9*math.Abs(full[1]) {
				t.Fatalf("trial %d: x[1] = %g vs full system %g", trial, x[1], full[1])
			}
		}
	})

	t.Run("wide-and-square", func(t *testing.T) {
		// m ≤ n is never compressed: SolveInto must be the full-system
		// iteration bit for bit.
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(10)
			m := 1 + rng.Intn(n)
			a, b := randSystem(rng, m, n)
			x := solve(a, b)
			want := fullSystemNNLS(t, a, b)
			for j := range want {
				if math.Float64bits(x[j]) != math.Float64bits(want[j]) {
					t.Fatalf("trial %d (%dx%d): x[%d] = %x, full system %x", trial, m, n, j, x[j], want[j])
				}
			}
		}
	})

	t.Run("zero-rhs", func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		a, _ := randSystem(rng, 50, 7)
		x := solve(a, make([]float64, 50))
		for j, v := range x {
			if v != 0 {
				t.Fatalf("x[%d] = %g, want 0 for a zero rhs", j, v)
			}
		}
	})

	t.Run("estimator-shape", func(t *testing.T) {
		// 83 benchmarks × 64 configurations × 11 parameters, positive
		// entries like the step-3 design.
		rng := rand.New(rand.NewSource(47))
		m, n := 83*64, 11
		a := NewMatrix(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Float64())
			}
			b[i] = 50 + 200*rng.Float64()
		}
		x := solve(a, b)
		checkSameSolution(t, "estimator-shape", x, fullSystemNNLS(t, a, b), 1e-9)
		checkKKT(t, "estimator-shape", a, b, x)
	})
}
