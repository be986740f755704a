package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow.
func Norm2(v []float64) float64 {
	var acc NormAcc
	for _, x := range v {
		acc.Add(x)
	}
	return acc.Norm()
}

// NormAcc accumulates the Euclidean norm of a stream of values with Norm2's
// overflow-safe scaling: adding v's entries in order and calling Norm gives
// Norm2(v) bit for bit. The zero value is an empty stream.
type NormAcc struct {
	scale, ssq float64
}

// Add appends x to the stream.
func (a *NormAcc) Add(x float64) {
	if x == 0 {
		return
	}
	ax := math.Abs(x)
	if a.scale < ax {
		r := a.scale / ax
		a.ssq = 1 + a.ssq*r*r
		a.scale = ax
	} else {
		r := ax / a.scale
		a.ssq += r * r
	}
}

// Norm returns the norm of the values added so far.
func (a *NormAcc) Norm() float64 {
	if a.scale == 0 {
		return 0
	}
	return a.scale * math.Sqrt(a.ssq)
}

// Axpy computes y ← y + alpha·x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sub returns a-b as a new slice.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// MaxAbsDiff returns max_i |a[i]-b[i]|.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: MaxAbsDiff length mismatch %d vs %d", len(a), len(b)))
	}
	var mx float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}
