package linalg

import "fmt"

// passiveSolver solves the least-squares problem restricted to the passive
// columns. The default path is the workspace-backed solvePassiveInto; tests
// inject failing solvers through nnls() to exercise the transient-
// singularity (blocked-set) recovery path.
type passiveSolver func(a *Matrix, b []float64, passive []bool) ([]float64, error)

// NNLS solves the non-negative least-squares problem
//
//	min_x ‖A·x − b‖₂  subject to  x ≥ 0
//
// using the active-set algorithm of Lawson & Hanson (1974). The power-model
// estimator relies on it because every hardware coefficient (β, ω) is a
// physical capacitance/leakage quantity and must be non-negative.
//
// NNLS allocates a fresh workspace per call; iterative callers (the
// Section III-D refit loop) should hold an NNLSWorkspace and use SolveInto,
// which allocates nothing in steady state.
func NNLS(a *Matrix, b []float64) ([]float64, error) {
	return nnls(a, b, nil)
}

// nnls is the active-set iteration with an injectable passive solver
// (nil selects the allocation-free workspace path). An injected solver sees
// the full system, so the active set runs uncompressed and its residual
// spans every row.
func nnls(a *Matrix, b []float64, solve passiveSolver) ([]float64, error) {
	ws := NewNNLSWorkspace(a.Rows(), a.Cols())
	if solve != nil {
		ws.testSolve, ws.resid = solve, make([]float64, a.Rows())
	}
	x := make([]float64, a.Cols())
	if err := ws.SolveInto(x, a, b); err != nil {
		return nil, err
	}
	return x, nil
}

// NNLSWorkspace holds every buffer the Lawson–Hanson active-set iteration
// needs, preallocated for a maximum system size: the factorization that
// compresses a tall system to its R factor, and the gradient, residual,
// passive/blocked sets, passive submatrix and passive QR of the n×n
// iteration. SolveInto then runs with zero steady-state heap allocations,
// which is what keeps the estimator's step-1/step-3 refits off the
// allocator (DESIGN.md §10).
//
// A workspace is single-goroutine state: confine each instance to one
// worker (see parallel.PerWorker) or guard it externally.
type NNLSWorkspace struct {
	maxRows, maxCols int

	// tall factorizes a tall system once per solve; r views rData as its
	// n×n upper-triangular R, and tall's Qᵀ·b scratch holds y = Q₁ᵀ·b.
	tall  *QRWorkspace
	rData []float64 // maxCols*maxCols
	r     Matrix

	w, z, zs []float64 // maxCols
	resid    []float64 // maxCols: residual of the (compressed) system
	passive  []bool
	blocked  []bool
	idx      []int
	subData  []float64 // maxCols*maxCols
	sub      Matrix    // current passive-submatrix view over subData
	qr       *QRWorkspace

	// testSolve, when non-nil, replaces the passive solve (test injection).
	testSolve passiveSolver
}

// NewNNLSWorkspace preallocates a workspace for systems with rows ≤ maxRows
// and cols ≤ maxCols.
func NewNNLSWorkspace(maxRows, maxCols int) *NNLSWorkspace {
	if maxRows <= 0 || maxCols <= 0 {
		panic(fmt.Sprintf("linalg: invalid NNLS workspace capacity %dx%d", maxRows, maxCols))
	}
	return &NNLSWorkspace{
		maxRows: maxRows,
		maxCols: maxCols,
		// Only systems with more rows than columns are compressed, so the
		// tall factorization never needs more than maxRows−1 columns.
		tall:    NewQRWorkspace(maxRows, min(maxRows, maxCols)),
		rData:   make([]float64, maxCols*maxCols),
		w:       make([]float64, maxCols),
		z:       make([]float64, maxCols),
		zs:      make([]float64, maxCols),
		resid:   make([]float64, maxCols),
		passive: make([]bool, maxCols),
		blocked: make([]bool, maxCols),
		idx:     make([]int, 0, maxCols),
		subData: make([]float64, maxCols*maxCols),
		qr:      NewQRWorkspace(maxCols, maxCols),
	}
}

// Ensure grows the workspace to accommodate systems with rows ≤ maxRows and
// cols ≤ maxCols, reallocating the internal buffers only when the requested
// capacity exceeds the current one. It exists for long-lived per-worker
// workspaces (fleet fitting) that meet heterogeneous system shapes; growing
// never changes solve results, because every buffer is (re)initialized per
// SolveInto. Not safe to call concurrently with a solve.
func (ws *NNLSWorkspace) Ensure(maxRows, maxCols int) {
	if maxRows <= ws.maxRows && maxCols <= ws.maxCols {
		return
	}
	if maxRows < ws.maxRows {
		maxRows = ws.maxRows
	}
	if maxCols < ws.maxCols {
		maxCols = ws.maxCols
	}
	*ws = *NewNNLSWorkspace(maxRows, maxCols)
}

// SolveInto solves min ‖A·x − b‖ s.t. x ≥ 0 into dst (len Cols).
//
// A tall system (Rows > Cols) is first Householder-factorized once,
// A = Q·R, and the active set then runs on the n×n problem
// min ‖R·x − Q₁ᵀ·b‖: the two objectives differ by the constant ‖Q₂ᵀ·b‖², so
// they share the minimizer and the KKT gradient Aᵀ(b − A·x) = Rᵀ(Q₁ᵀ·b − R·x).
// Every passive solve is then a QR of an n×k matrix and every gradient or
// residual pass is n×n, however many rows A has. The stopping tolerance is
// still scaled by the original A and b.
//
// The allocating NNLS entry point runs this same path, so the two are
// bitwise-identical; only the storage strategy differs.
//
//gpower:noalloc the compression and the active-set iteration run entirely on preallocated workspace storage
func (ws *NNLSWorkspace) SolveInto(dst []float64, a *Matrix, b []float64) error {
	m, n := a.Rows(), a.Cols()
	if len(b) != m {
		//gpower:allocs validation error path: a mis-sized rhs never reaches the solver
		return fmt.Errorf("linalg: NNLS rhs length %d, want %d", len(b), m)
	}
	if len(dst) != n {
		//gpower:allocs validation error path: a mis-sized dst never reaches the solver
		return fmt.Errorf("linalg: NNLS dst length %d, want %d", len(dst), n)
	}
	if m > ws.maxRows || n > ws.maxCols {
		//gpower:allocs validation error path: an over-capacity system never reaches the solver
		return fmt.Errorf("linalg: %dx%d exceeds NNLS workspace capacity %dx%d", m, n, ws.maxRows, ws.maxCols)
	}

	x := dst
	for j := range x {
		x[j] = 0
	}
	const (
		maxOuter = 3 * 64
		tol      = 1e-10
	)
	// Scale tolerance with the original problem, compressed or not.
	scale := a.MaxAbs() * Norm2(b)
	if scale == 0 {
		return nil // A or b is all-zero; x = 0 is optimal.
	}
	gradTol := tol * scale
	if ws.testSolve == nil && m > n {
		if err := ws.compress(a, b); err != nil {
			return err
		}
		a, b, m = &ws.r, ws.tall.y[:n], n
	}

	passive := ws.passive[:n] // true: variable free, false: clamped at 0
	blocked := ws.blocked[:n] // variables whose inclusion made the passive set singular
	for j := 0; j < n; j++ {
		passive[j] = false
		blocked[j] = false
	}

	w := ws.w[:n] // gradient of the active (clamped) variables
	resid := ws.resid[:m]
	copy(resid, b)

	outer := 0
	for {
		outer++
		if outer > maxOuter+n*8 {
			// Defensive bound; in practice the loop terminates long before.
			break
		}
		// w = Aᵀ·resid (the KKT gradient of the clamped variables).
		if err := a.TMulVecInto(w, resid); err != nil {
			return err
		}
		// Pick the most promising clamped variable.
		best, bestW := -1, gradTol
		for j := 0; j < n; j++ {
			if !passive[j] && !blocked[j] && w[j] > bestW {
				best, bestW = j, w[j]
			}
		}
		if best < 0 {
			break // KKT conditions satisfied.
		}
		passive[best] = true

		// Inner loop: solve the unconstrained problem on the passive set and
		// clip any variables that went negative. removed tracks whether any
		// variable left the passive set this outer iteration — if so, the
		// passive geometry changed and stale singularity verdicts (blocked
		// flags) must be re-examined.
		removed := false
		blockedBest := false
		for {
			z, err := ws.solvePassive(a, b, passive)
			if err != nil {
				// The passive submatrix became singular (e.g. collinear
				// columns when every voltage is pinned to 1); clamp the
				// variable we just freed and exclude it from the picks until
				// the passive set changes again.
				passive[best] = false
				blocked[best] = true
				blockedBest = true
				break
			}
			// Feasible?
			minIdx, alpha := -1, 1.0
			for j := 0; j < n; j++ {
				if passive[j] && z[j] <= 0 {
					// Step length to the first bound along x→z.
					den := x[j] - z[j]
					if den <= 0 {
						continue
					}
					a2 := x[j] / den
					if a2 < alpha {
						alpha, minIdx = a2, j
					}
				}
			}
			if minIdx < 0 {
				copy(x, z)
				break
			}
			for j := 0; j < n; j++ {
				if passive[j] {
					x[j] += alpha * (z[j] - x[j])
				}
			}
			for j := 0; j < n; j++ {
				if passive[j] && x[j] <= tol {
					x[j] = 0
					passive[j] = false
					removed = true
				}
			}
		}

		// Blocked-set recovery: a blocked variable was only unusable against
		// the passive set that existed when it was blocked. Once any variable
		// has left the passive set, the offending collinearity may be gone,
		// so every blocked variable becomes eligible again (except one
		// blocked in this very iteration, which reflects the current set).
		// Without this, a transiently collinear column stayed excluded
		// forever and NNLS could return a suboptimal, KKT-violating point.
		if removed {
			for j := range blocked {
				blocked[j] = false
			}
			if blockedBest {
				blocked[best] = true
			}
		}

		// Refresh the residual: resid = b − A·x.
		if err := a.MulVecInto(resid, x); err != nil {
			return err
		}
		for i := range resid {
			resid[i] = b[i] - resid[i]
		}
	}
	// Clean tiny negatives from floating-point noise.
	for j := range x {
		if x[j] < 0 && x[j] > -1e-12 {
			x[j] = 0
		}
	}
	return nil
}

// compress Householder-factorizes the tall system a into ws.tall, copies its
// upper-triangular R into ws.r and leaves y = Q₁ᵀ·b in ws.tall.y[:Cols].
// Rank is not checked: the active set's passive solves catch singular
// column subsets exactly as they would on a.
func (ws *NNLSWorkspace) compress(a *Matrix, b []float64) error {
	n := a.Cols()
	if err := ws.tall.Factorize(a); err != nil {
		return err
	}
	f := &ws.tall.qr
	y := ws.tall.y[:a.Rows()]
	copy(y, b)
	applyQT(f, y)
	ws.r = Matrix{rows: n, cols: n, data: ws.rData[:n*n]}
	for i := 0; i < n; i++ {
		row := ws.r.data[i*n : (i+1)*n]
		for j := 0; j < i; j++ {
			row[j] = 0
		}
		row[i] = ws.tall.rdia[i]
		copy(row[i+1:], f.data[i*n+i+1:(i+1)*n])
	}
	return nil
}

// solvePassive dispatches the passive-set solve: the injected test solver
// when present, the allocation-free workspace path otherwise. Either way
// the solution lands in ws.z (zeros on the active set).
func (ws *NNLSWorkspace) solvePassive(a *Matrix, b []float64, passive []bool) ([]float64, error) {
	if ws.testSolve != nil {
		//gpower:allocs test-only injection point: production workspaces never set testSolve
		z, err := ws.testSolve(a, b, passive)
		if err != nil {
			return nil, err
		}
		copy(ws.z[:a.Cols()], z)
		return ws.z[:a.Cols()], nil
	}
	if err := ws.solvePassiveInto(a, b, passive); err != nil {
		return nil, err
	}
	return ws.z[:a.Cols()], nil
}

// solvePassiveInto solves the least-squares problem restricted to the
// passive columns into ws.z, gathering the submatrix into the workspace and
// factorizing with the preallocated QR — no allocation. On the production
// path a is the n×n R factor, so the gather and the factorization are
// n×k. The gathered values and the factorization kernel are identical to
// the allocating CopyColumns + LeastSquares path (solvePassive), so the
// solution is bitwise-equal.
func (ws *NNLSWorkspace) solvePassiveInto(a *Matrix, b []float64, passive []bool) error {
	m, n := a.Rows(), a.Cols()
	idx := ws.idx[:0]
	for j := 0; j < n; j++ {
		if passive[j] {
			//gpower:allocs appends into ws.idx, preallocated to maxCols, so at most n ≤ maxCols entries stay in capacity
			idx = append(idx, j)
		}
	}
	z := ws.z[:n]
	for j := range z {
		z[j] = 0
	}
	if len(idx) == 0 {
		return nil
	}
	k := len(idx)
	ws.sub = Matrix{rows: m, cols: k, data: ws.subData[:m*k]}
	for i := 0; i < m; i++ {
		src := a.data[i*a.cols : (i+1)*a.cols]
		dst := ws.sub.data[i*k : (i+1)*k]
		for p, j := range idx {
			dst[p] = src[j]
		}
	}
	if err := ws.qr.Factorize(&ws.sub); err != nil {
		return err
	}
	zs := ws.zs[:k]
	if err := ws.qr.SolveInto(zs, b); err != nil {
		return err
	}
	for p, j := range idx {
		z[j] = zs[p]
	}
	return nil
}

// solvePassive is the allocating reference implementation of the passive-
// set solve: gather the passive columns, least-squares, scatter back. The
// workspace path (solvePassiveInto) performs the same arithmetic on reused
// storage; the equivalence tests compare the two bitwise, and the injection
// tests fall back to this one.
func solvePassive(a *Matrix, b []float64, passive []bool) ([]float64, error) {
	n := a.Cols()
	var idx []int
	for j := 0; j < n; j++ {
		if passive[j] {
			idx = append(idx, j)
		}
	}
	if len(idx) == 0 {
		return make([]float64, n), nil
	}
	sub := a.CopyColumns(idx)
	zs, err := LeastSquares(sub, b)
	if err != nil {
		return nil, err
	}
	z := make([]float64, n)
	for k, j := range idx {
		z[j] = zs[k]
	}
	return z, nil
}
