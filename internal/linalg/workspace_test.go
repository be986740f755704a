package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randSystem builds a random m×n system with well-scaled entries.
func randSystem(rng *rand.Rand, m, n int) (*Matrix, []float64) {
	a := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

// TestQRWorkspaceMatchesNewQR checks that the workspace Factorize/SolveInto
// path is bitwise-identical to the allocating NewQR/Solve path: both run the
// same householder/qrSolveInto kernels, so any divergence is a bug.
func TestQRWorkspaceMatchesNewQR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ws := NewQRWorkspace(64, 12)
	for trial := 0; trial < 50; trial++ {
		m := 12 + rng.Intn(52)
		n := 1 + rng.Intn(12)
		a, b := randSystem(rng, m, n)

		f, err := NewQR(a)
		if err != nil {
			t.Fatalf("NewQR: %v", err)
		}
		want, err := f.Solve(b)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}

		if err := ws.Factorize(a); err != nil {
			t.Fatalf("Factorize: %v", err)
		}
		got := make([]float64, n)
		if err := ws.SolveInto(got, b); err != nil {
			t.Fatalf("SolveInto: %v", err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d: x[%d] = %x, want %x (not bitwise equal)",
					trial, j, got[j], want[j])
			}
		}
	}
}

// TestNNLSWorkspaceMatchesNNLS checks that a reused NNLSWorkspace produces
// bitwise-identical solutions to the one-shot NNLS entry point across a
// sequence of systems (stale state from solve k must not leak into k+1).
func TestNNLSWorkspaceMatchesNNLS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := NewNNLSWorkspace(80, 11)
	for trial := 0; trial < 40; trial++ {
		m := 11 + rng.Intn(70)
		n := 2 + rng.Intn(10)
		a, b := randSystem(rng, m, n)

		want, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("NNLS: %v", err)
		}
		got := make([]float64, n)
		if err := ws.SolveInto(got, a, b); err != nil {
			t.Fatalf("SolveInto: %v", err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d: x[%d] = %x, want %x (not bitwise equal)",
					trial, j, got[j], want[j])
			}
		}
	}
}

// TestSolvePassiveIntoMatchesReference pins the workspace passive solve to
// the allocating reference implementation used by the injection tests, on
// the system production now feeds it: the n×n R factor and Q₁ᵀ·b of a tall
// random system, as compressed by SolveInto.
func TestSolvePassiveIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ws := NewNNLSWorkspace(32, 8)
	for trial := 0; trial < 30; trial++ {
		m := 8 + rng.Intn(24)
		n := 2 + rng.Intn(7)
		a, b := randSystem(rng, m, n)
		if err := ws.compress(a, b); err != nil {
			t.Fatalf("compress: %v", err)
		}
		r, y := &ws.r, ws.tall.y[:n]
		if r.Rows() != n || r.Cols() != n {
			t.Fatalf("trial %d: R is %dx%d, want %dx%d", trial, r.Rows(), r.Cols(), n, n)
		}
		passive := make([]bool, n)
		any := false
		for j := range passive {
			passive[j] = rng.Intn(2) == 0
			any = any || passive[j]
		}
		if !any {
			passive[0] = true
		}

		want, err := solvePassive(r, y, passive)
		if err != nil {
			t.Fatalf("solvePassive: %v", err)
		}
		if err := ws.solvePassiveInto(r, y, passive); err != nil {
			t.Fatalf("solvePassiveInto: %v", err)
		}
		got := ws.z[:n]
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d: z[%d] = %x, want %x (not bitwise equal)",
					trial, j, got[j], want[j])
			}
		}
	}
}

// TestMulIntoMatchesMul pins the in-place product to the allocating one.
func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, _ := randSystem(rng, 17, 9)
	b, _ := randSystem(rng, 9, 13)
	want, err := a.Mul(b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	got := NewMatrix(17, 13)
	// Dirty the destination to prove MulInto fully overwrites it.
	for i := range got.data {
		got.data[i] = math.NaN()
	}
	if err := a.MulInto(got, b); err != nil {
		t.Fatalf("MulInto: %v", err)
	}
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("entry %d: %x, want %x", i, got.data[i], want.data[i])
		}
	}
}

// --- allocation regression tests (ISSUE: 0 allocs after warm-up) ---

func TestQRWorkspaceSolveIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randSystem(rng, 40, 11)
	ws := NewQRWorkspace(40, 11)
	x := make([]float64, 11)
	allocs := testing.AllocsPerRun(20, func() {
		if err := ws.Factorize(a); err != nil {
			t.Fatalf("Factorize: %v", err)
		}
		if err := ws.SolveInto(x, b); err != nil {
			t.Fatalf("SolveInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("QRWorkspace Factorize+SolveInto allocates %.1f/op, want 0", allocs)
	}
}

func TestNNLSWorkspaceSolveIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randSystem(rng, 60, 11)
	ws := NewNNLSWorkspace(60, 11)
	x := make([]float64, 11)
	// Warm-up solve (idx capacity growth etc. happens in NewNNLSWorkspace,
	// but warm once anyway to mirror steady-state use).
	if err := ws.SolveInto(x, a, b); err != nil {
		t.Fatalf("warm-up SolveInto: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ws.SolveInto(x, a, b); err != nil {
			t.Fatalf("SolveInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NNLSWorkspace.SolveInto allocates %.1f/op in steady state, want 0", allocs)
	}
}

func TestMulVecIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, _ := randSystem(rng, 40, 11)
	x := make([]float64, 11)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	dst := make([]float64, 40)
	tdst := make([]float64, 11)
	y := make([]float64, 40)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := a.MulVecInto(dst, x); err != nil {
			t.Fatalf("MulVecInto: %v", err)
		}
		if err := a.TMulVecInto(tdst, y); err != nil {
			t.Fatalf("TMulVecInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MulVecInto/TMulVecInto allocate %.1f/op, want 0", allocs)
	}
}
