package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatrix(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewMatrix(dims[0], dims[1])
		}()
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	m, err := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("unexpected contents: %v", m)
	}
	if _, err := NewMatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := NewMatrixFromRows(nil); err == nil {
		t.Fatal("empty rows accepted")
	}
}

func TestSetAtRowCol(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("Set/At mismatch")
	}
	m.SetRow(0, []float64{1, 2, 3})
	r := m.Row(0)
	if r[0] != 1 || r[2] != 3 {
		t.Fatalf("Row = %v", r)
	}
	// Row returns a copy.
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row did not return a copy")
	}
	c := m.Col(2)
	if c[0] != 3 || c[1] != 7 {
		t.Fatalf("Col = %v", c)
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("T dims = %dx%d", mt.Rows(), mt.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul (%d,%d) = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewMatrix(3, 3)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y, err := a.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

// Property: (Aᵀ)ᵀ = A.
func TestTransposeInvolution(t *testing.T) {
	f := func(vals [6]float64) bool {
		m, _ := NewMatrixFromRows([][]float64{vals[:3], vals[3:]})
		tt := m.T().T()
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				if m.At(i, j) != tt.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix-vector multiplication is linear: A(x+y) = Ax + Ay.
func TestMulVecLinearity(t *testing.T) {
	f := func(vals [6]float64, x, y [3]float64) bool {
		m, _ := NewMatrixFromRows([][]float64{vals[:3], vals[3:]})
		for i := range vals {
			if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
				return true
			}
		}
		for i := 0; i < 3; i++ {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
				return true
			}
			// Keep magnitudes sane to avoid float cancellation dominating.
			if math.Abs(x[i]) > 1e6 || math.Abs(y[i]) > 1e6 {
				return true
			}
		}
		for i := range vals {
			if math.Abs(vals[i]) > 1e6 {
				return true
			}
		}
		sum := []float64{x[0] + y[0], x[1] + y[1], x[2] + y[2]}
		axy, _ := m.MulVec(sum)
		ax, _ := m.MulVec(x[:])
		ay, _ := m.MulVec(y[:])
		for i := range axy {
			if !almostEq(axy[i], ax[i]+ay[i], 1e-6*(1+math.Abs(axy[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbs(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, -7}, {3, 4}})
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %g, want 7", m.MaxAbs())
	}
}

func TestTMulVecMatchesExplicitTranspose(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	y := []float64{10, 100}
	got, err := m.TMulVec(y)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.T().MulVec(y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("TMulVec = %v, Aᵀ·y = %v", got, want)
		}
	}
	if _, err := m.TMulVec([]float64{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := m.TMulVecInto(make([]float64, 2), y); err == nil {
		t.Fatal("bad dst length accepted")
	}
}

func TestCopyColumns(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	sub := m.CopyColumns([]int{2, 0})
	if sub.Rows() != 2 || sub.Cols() != 2 {
		t.Fatalf("shape %dx%d", sub.Rows(), sub.Cols())
	}
	want := [][]float64{{3, 1}, {6, 4}}
	for i := range want {
		for j := range want[i] {
			if sub.At(i, j) != want[i][j] {
				t.Fatalf("CopyColumns = %v", sub)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range column accepted")
		}
	}()
	m.CopyColumns([]int{3})
}

func TestMulLargeParallelMatchesSerial(t *testing.T) {
	// Cross the parallelMinWork threshold and compare against a straight
	// triple loop; the row-parallel product must be bitwise-identical.
	const n = 48
	a := NewMatrix(n, n)
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1/float64(i+j+1))
			b.Set(i, j, float64((i*j)%7)-3)
		}
	}
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				av := a.At(i, k)
				if av == 0 {
					continue
				}
				s += av * b.At(k, j)
			}
			if got.At(i, j) != s {
				t.Fatalf("(%d,%d): parallel %g != serial %g", i, j, got.At(i, j), s)
			}
		}
	}
}
