package linalg

import (
	"errors"
	"fmt"
	"math"

	"gpupower/internal/parallel"
)

// ErrRankDeficient is returned when a least-squares system does not have a
// unique solution at working precision.
var ErrRankDeficient = errors.New("linalg: rank-deficient system")

// QR holds a Householder QR factorization of an m×n matrix (m ≥ n):
// A = Q·R with Q orthogonal (stored implicitly as Householder reflectors)
// and R upper triangular.
type QR struct {
	qr   *Matrix   // packed reflectors below diagonal, R on/above diagonal
	rdia []float64 // diagonal of R
}

// qrRowBlock is the fixed row-block length of the blocked Householder
// kernel. Block b of column k covers rows [k+b·qrRowBlock, k+(b+1)·qrRowBlock),
// so the block decomposition — and therefore the partial-sum association of
// the fused reflector application — is a property of the matrix shape alone,
// never of the worker count. Serial and parallel factorizations of the same
// matrix are bitwise-identical.
const qrRowBlock = 256

// qrBlocks returns the number of row blocks a factorization of m rows can
// touch (the column-0 count, which is the maximum over all columns).
func qrBlocks(m int) int { return (m + qrRowBlock - 1) / qrRowBlock }

// colNorm2 computes the Euclidean norm of rows [k, m) of column k with one
// scaled sum-of-squares pass (overflow-safe like a Hypot chain, but one
// division per element and a single Sqrt instead of a libcall per element).
func colNorm2(qr *Matrix, k int) float64 {
	m, n := qr.rows, qr.cols
	var mx float64
	for i := k; i < m; i++ {
		if a := math.Abs(qr.data[i*n+k]); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	var ss float64
	for i := k; i < m; i++ {
		v := qr.data[i*n+k] / mx
		ss += v * v
	}
	return mx * math.Sqrt(ss)
}

// reflectorPartial computes row block b's partial sums of vᵀ·A over the
// trailing columns of the column-k reflector into partial[b·cols : (b+1)·cols].
// Package function (not a closure) so the inline serial dispatch in
// applyReflector allocates nothing — the same closure-escape trap MulInto
// documents.
func reflectorPartial(qr *Matrix, k, b int, partial []float64) {
	m, n := qr.rows, qr.cols
	lo := k + b*qrRowBlock
	hi := lo + qrRowBlock
	if hi > m {
		hi = m
	}
	data := qr.data
	part := partial[b*n : (b+1)*n]
	for j := k + 1; j < n; j++ {
		part[j] = 0
	}
	for i := lo; i < hi; i++ {
		row := data[i*n : (i+1)*n]
		vi := row[k]
		for j := k + 1; j < n; j++ {
			part[j] += vi * row[j]
		}
	}
}

// reflectorUpdate applies the rank-1 update of the column-k reflector to row
// block b: A_ij += w_j·v_i. Blocks own disjoint rows. Package function for
// the same allocation reason as reflectorPartial.
func reflectorUpdate(qr *Matrix, k, b int, w []float64) {
	m, n := qr.rows, qr.cols
	lo := k + b*qrRowBlock
	hi := lo + qrRowBlock
	if hi > m {
		hi = m
	}
	data := qr.data
	for i := lo; i < hi; i++ {
		row := data[i*n : (i+1)*n]
		vi := row[k]
		for j := k + 1; j < n; j++ {
			row[j] += w[j] * vi
		}
	}
}

// applyReflector applies the column-k Householder reflector (packed in rows
// [k, m) of column k, pivot on the diagonal) to the trailing columns with a
// fused two-pass row sweep:
//
//	pass 1:  w_j = Σ_i v_i·A_ij   (per-block partials, folded in block order)
//	pass 2:  A_ij += s_j·v_i      (s_j = −w_j/v_k; disjoint row blocks)
//
// Compared with the historical column-at-a-time loop this reads each row
// once per pass (row-major, cache-friendly), touches no bounds-checked
// At/Set accessors, and is the fan-out point that lets the step-1/step-3
// refits scale across cores. Both passes run over the same fixed block
// decomposition whether dispatched inline or across the pool, so serial and
// parallel factorizations are bitwise-identical.
//
// w needs len ≥ cols; partial needs len ≥ blocks·cols.
func applyReflector(qr *Matrix, k int, w, partial []float64) {
	m, n := qr.rows, qr.cols
	if k+1 >= n {
		return
	}
	rows := m - k
	blocks := (rows + qrRowBlock - 1) / qrRowBlock
	fanOut := blocks > 1 && rows*(n-k-1) >= parallelMinWork
	// Pass 1: per-block partial sums of vᵀ·A over the trailing columns.
	if fanOut {
		// The per-block work is reflectorPartial either way; the closure only
		// routes the block index, so fan-out cannot change a bit.
		//gpower:allocs large-matrix fan-out: the block closure escapes into the worker pool; small solves take the inline loop below
		_ = parallel.ForEach(blocks, func(b int) error {
			reflectorPartial(qr, k, b, partial)
			return nil
		})
	} else {
		for b := 0; b < blocks; b++ {
			reflectorPartial(qr, k, b, partial)
		}
	}
	// Fold the partials in block order (fixed association) and precompute
	// the per-column update scale.
	data := qr.data
	pivot := data[k*n+k]
	for j := k + 1; j < n; j++ {
		var s float64
		for b := 0; b < blocks; b++ {
			s += partial[b*n+j]
		}
		w[j] = -s / pivot
	}
	// Pass 2: rank-1 update, disjoint row blocks.
	if fanOut {
		//gpower:allocs large-matrix fan-out: the block closure escapes into the worker pool; small solves take the inline loop below
		_ = parallel.ForEach(blocks, func(b int) error {
			reflectorUpdate(qr, k, b, w)
			return nil
		})
	} else {
		for b := 0; b < blocks; b++ {
			reflectorUpdate(qr, k, b, w)
		}
	}
}

// householder factorizes qr in place: packed Householder reflectors below
// the diagonal, R on/above it, R's diagonal in rdia (len Cols). It is the
// single shared kernel behind NewQR and QRWorkspace.Factorize, so the two
// paths are arithmetically — and therefore bitwise — identical. The
// reflector application is blocked and fused (see applyReflector); the
// historical Hypot-chain kernel survives as householderRef, the baseline of
// the speedup measurements.
//
// w and partial are caller-owned scratch: len(w) ≥ cols,
// len(partial) ≥ qrBlocks(rows)·cols.
func householder(qr *Matrix, rdia, w, partial []float64) {
	m, n := qr.rows, qr.cols
	data := qr.data
	for k := 0; k < n; k++ {
		// Householder vector for column k.
		nrm := colNorm2(qr, k)
		if nrm != 0 {
			if data[k*n+k] < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				data[i*n+k] /= nrm
			}
			data[k*n+k]++
			applyReflector(qr, k, w, partial)
		}
		rdia[k] = -nrm
	}
}

// fullRank reports whether rdia has no (near-)zero entries relative to the
// largest one.
func fullRank(rdia []float64) bool {
	var mx float64
	for _, d := range rdia {
		if a := math.Abs(d); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return false
	}
	const relTol = 1e-12
	for _, d := range rdia {
		if math.Abs(d) <= relTol*mx {
			return false
		}
	}
	return true
}

// applyQT overwrites y (len Rows) with Qᵀ·y, applying the packed
// reflectors of the factorization in qr. Direct data indexing (not At/Set)
// with the exact loop order of the historical accessor-based code: same
// arithmetic, no per-element bounds re-checks.
func applyQT(qr *Matrix, y []float64) {
	m, n := qr.rows, qr.cols
	data := qr.data
	for k := 0; k < n; k++ {
		if data[k*n+k] == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += data[i*n+k] * y[i]
		}
		s = -s / data[k*n+k]
		for i := k; i < m; i++ {
			y[i] += s * data[i*n+k]
		}
	}
}

// qrSolveInto solves the factored least-squares system into dst (len Cols),
// using y (len Rows) as scratch for the Qᵀ·b application. It performs no
// allocation; rank checking is the caller's responsibility.
func qrSolveInto(qr *Matrix, rdia, dst, y, b []float64) {
	n := qr.cols
	data := qr.data
	copy(y, b)
	applyQT(qr, y)
	// Back substitution R·x = y.
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		row := data[k*n : (k+1)*n]
		for j := k + 1; j < n; j++ {
			s -= row[j] * dst[j]
		}
		dst[k] = s / rdia[k]
	}
}

// NewQR computes the QR factorization of a. It requires Rows ≥ Cols.
func NewQR(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	rdia := make([]float64, n)
	householder(qr, rdia, make([]float64, n), make([]float64, qrBlocks(m)*n))
	return &QR{qr: qr, rdia: rdia}, nil
}

// FullRank reports whether R has no (near-)zero diagonal entries relative to
// the largest one.
func (f *QR) FullRank() bool { return fullRank(f.rdia) }

// Solve returns x minimizing ‖A·x − b‖₂. It returns ErrRankDeficient when A
// is numerically rank-deficient.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Rows(), f.qr.Cols()
	if len(b) != m {
		return nil, fmt.Errorf("linalg: QR solve rhs length %d, want %d", len(b), m)
	}
	if !f.FullRank() {
		return nil, ErrRankDeficient
	}
	y := make([]float64, m)
	x := make([]float64, n)
	qrSolveInto(f.qr, f.rdia, x, y, b)
	return x, nil
}

// QRWorkspace is a preallocated Householder QR factorization buffer: one
// allocation up front (sized for the largest system the caller will solve),
// zero allocations per Factorize/SolveInto afterwards. It is the inner
// kernel of the estimator's iterative refits (DESIGN.md §10), where the
// same-shaped system is solved hundreds of times per fit.
//
// A workspace is single-goroutine state: confine each instance to one
// worker (see parallel.PerWorker) or guard it externally.
type QRWorkspace struct {
	maxRows, maxCols int
	qrData           []float64
	rdia             []float64
	y                []float64
	w                []float64 // blocked-kernel per-column update scales
	partial          []float64 // blocked-kernel per-block partial sums

	qr       Matrix // current factorization view over qrData
	factored bool
}

// NewQRWorkspace preallocates a workspace able to factorize any matrix with
// rows ≤ maxRows and cols ≤ maxCols (rows ≥ cols still required per solve).
func NewQRWorkspace(maxRows, maxCols int) *QRWorkspace {
	if maxRows <= 0 || maxCols <= 0 || maxRows < maxCols {
		panic(fmt.Sprintf("linalg: invalid QR workspace capacity %dx%d", maxRows, maxCols))
	}
	return &QRWorkspace{
		maxRows: maxRows,
		maxCols: maxCols,
		qrData:  make([]float64, maxRows*maxCols),
		rdia:    make([]float64, maxCols),
		y:       make([]float64, maxRows),
		w:       make([]float64, maxCols),
		partial: make([]float64, qrBlocks(maxRows)*maxCols),
	}
}

// Factorize copies a into the workspace and factorizes it in place. The
// arithmetic is byte-for-byte the NewQR kernel; only the storage is reused.
//
//gpower:noalloc in-capacity factorizations run entirely on preallocated workspace storage
func (w *QRWorkspace) Factorize(a *Matrix) error {
	m, n := a.Rows(), a.Cols()
	if m < n {
		//gpower:allocs validation error path: a malformed shape never reaches the kernel
		return fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	if m > w.maxRows || n > w.maxCols {
		//gpower:allocs validation error path: an over-capacity matrix never reaches the kernel
		return fmt.Errorf("linalg: %dx%d exceeds QR workspace capacity %dx%d", m, n, w.maxRows, w.maxCols)
	}
	w.qr = Matrix{rows: m, cols: n, data: w.qrData[:m*n]}
	copy(w.qr.data, a.data)
	householder(&w.qr, w.rdia[:n], w.w[:n], w.partial[:qrBlocks(m)*n])
	w.factored = true
	return nil
}

// FullRank reports whether the last factorized matrix has full column rank
// at working precision.
func (w *QRWorkspace) FullRank() bool {
	return w.factored && fullRank(w.rdia[:w.qr.cols])
}

// SolveInto writes x minimizing ‖A·x − b‖₂ into dst (len Cols of the last
// Factorize), allocating nothing. It returns ErrRankDeficient when the
// factorized matrix is numerically rank-deficient.
//
//gpower:noalloc back-substitution on preallocated workspace storage
func (w *QRWorkspace) SolveInto(dst, b []float64) error {
	if !w.factored {
		//gpower:allocs validation error path: solving before Factorize is a caller bug
		return fmt.Errorf("linalg: QR workspace solve before Factorize")
	}
	m, n := w.qr.rows, w.qr.cols
	if len(b) != m {
		//gpower:allocs validation error path: a mis-sized rhs never reaches the kernel
		return fmt.Errorf("linalg: QR solve rhs length %d, want %d", len(b), m)
	}
	if len(dst) != n {
		//gpower:allocs validation error path: a mis-sized dst never reaches the kernel
		return fmt.Errorf("linalg: QR solve dst length %d, want %d", len(dst), n)
	}
	if !fullRank(w.rdia[:n]) {
		return ErrRankDeficient
	}
	qrSolveInto(&w.qr, w.rdia[:n], dst, w.y[:m], b)
	return nil
}

// LeastSquares solves min_x ‖A·x − b‖₂ via QR.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	f, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// RidgeLeastSquares solves the Tikhonov-regularized problem
// min_x ‖A·x − b‖² + λ‖x‖² by augmenting the system with √λ·I. It is used
// as a fallback when the plain system is rank-deficient (e.g. a
// microbenchmark set that never exercises one component).
func RidgeLeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: negative ridge parameter %g", lambda)
	}
	m, n := a.Rows(), a.Cols()
	if len(b) != m {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), m)
	}
	aug := NewMatrix(m+n, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			aug.Set(i, j, a.At(i, j))
		}
	}
	sl := math.Sqrt(lambda)
	for j := 0; j < n; j++ {
		aug.Set(m+j, j, sl)
	}
	rhs := make([]float64, m+n)
	copy(rhs, b)
	return LeastSquares(aug, rhs)
}

// Residual returns b − A·x.
func Residual(a *Matrix, x, b []float64) ([]float64, error) {
	ax, err := a.MulVec(x)
	if err != nil {
		return nil, err
	}
	return Sub(b, ax), nil
}
