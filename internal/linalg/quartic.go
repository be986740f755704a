package linalg

import (
	"fmt"
	"math"
)

// Quartic2D is a bivariate quartic surface of the shape produced by the
// estimator's per-configuration step-2 objective (paper Section III-D):
//
//	f(x, y) = Σ_b (D_b − p·x − q_b·x² − r·y − s_b·y²)²
//
// expanded into thirteen monomial coefficients. Compiling the sum of squares
// into this closed form turns every objective evaluation inside the 2-D
// minimization from an O(n_benchmarks) loop into a constant-time polynomial
// evaluation, and gives the minimization closed-form restrictions to each
// axis and a closed-form gradient and Hessian.
//
// Cxy multiplies xˣ·yʸ. The expansion cost is one O(n_benchmarks) pass per
// configuration (see core.solveVoltages); evaluation is pure straight-line
// arithmetic, so it is deterministic and allocation-free by construction.
type Quartic2D struct {
	C00, C10, C20, C30, C40 float64 // 1, x, x², x³, x⁴
	C01, C02, C03, C04      float64 // y, y², y³, y⁴
	C11, C12, C21, C22      float64 // x·y, x·y², x²·y, x²·y²
}

// Eval evaluates the surface at (x, y) with a fixed operation order, so the
// result is bitwise-reproducible across calls and goroutines.
func (q *Quartic2D) Eval(x, y float64) float64 {
	x2 := x * x
	y2 := y * y
	sx := q.C00 + q.C10*x + q.C20*x2 + q.C30*x2*x + q.C40*x2*x2
	sy := q.C01*y + q.C02*y2 + q.C03*y2*y + q.C04*y2*y2
	sxy := q.C11*x*y + q.C12*x*y2 + q.C21*x2*y + q.C22*x2*y2
	return sx + sy + sxy
}

// quartic1D is a univariate quartic c[0] + c[1]·t + c[2]·t² + c[3]·t³ +
// c[4]·t⁴: a Quartic2D restricted to one axis.
type quartic1D [5]float64

// axis restricts the surface to one coordinate with the other held fixed:
// f(t, other) when alongX, f(other, t) otherwise.
func (q *Quartic2D) axis(alongX bool, other float64) quartic1D {
	o, o2 := other, other*other
	if alongX {
		return quartic1D{
			q.C00 + q.C01*o + q.C02*o2 + q.C03*o2*o + q.C04*o2*o2,
			q.C10 + q.C11*o + q.C12*o2,
			q.C20 + q.C21*o + q.C22*o2,
			q.C30,
			q.C40,
		}
	}
	return quartic1D{
		q.C00 + q.C10*o + q.C20*o2 + q.C30*o2*o + q.C40*o2*o2,
		q.C01 + q.C11*o + q.C21*o2,
		q.C02 + q.C12*o + q.C22*o2,
		q.C03,
		q.C04,
	}
}

func (c *quartic1D) eval(t float64) float64 {
	return c[0] + t*(c[1]+t*(c[2]+t*(c[3]+t*c[4])))
}

// d1 and d2 are the first and second derivatives.
func (c *quartic1D) d1(t float64) float64 {
	return c[1] + t*(2*c[2]+t*(3*c[3]+t*4*c[4]))
}

func (c *quartic1D) d2(t float64) float64 {
	return 2*c[2] + t*(6*c[3]+t*12*c[4])
}

// minimize returns the exact minimizer of c on [lo, hi]: the lowest of the
// two endpoints and the interior stationary points. The roots of c″ split
// the interval into pieces on which c′ is monotone; a local minimum is
// either a root of c′ where it crosses from negative to positive inside a
// piece, found by safeguarded Newton, or a zero of c′ at a split point
// (a multiple root), which is itself a candidate. Ties keep the leftmost
// candidate, so the result is a pure function of the coefficients.
func (c *quartic1D) minimize(lo, hi float64) float64 {
	// Split points: roots of c″(t) = 12·c4·t² + 6·c3·t + 2·c2 in (lo, hi).
	var pts [4]float64
	np := 0
	pts[np] = lo
	np++
	r1, r2, nr := quadRoots(12*c[4], 6*c[3], 2*c[2])
	if nr > 0 && r1 > lo && r1 < hi {
		pts[np] = r1
		np++
	}
	if nr > 1 && r2 > lo && r2 < hi && r2 > pts[np-1] {
		pts[np] = r2
		np++
	}
	pts[np] = hi
	np++

	best, fbest := lo, c.eval(lo)
	for p := 0; p+1 < np; p++ {
		l, r := pts[p], pts[p+1]
		if p > 0 {
			if f := c.eval(l); f < fbest { // interior split point
				best, fbest = l, f
			}
		}
		if c.d1(l) < 0 && c.d1(r) > 0 {
			t := c.newtonRoot(l, r)
			if f := c.eval(t); f < fbest {
				best, fbest = t, f
			}
		}
	}
	if c.eval(hi) < fbest {
		best = hi
	}
	return best
}

// newtonRoot finds the root of c′ on [l, r], given c′(l) < 0 < c′(r) and c′
// monotone on the bracket. Newton steps that leave the shrinking bracket
// fall back to bisection, so the iteration always converges.
func (c *quartic1D) newtonRoot(l, r float64) float64 {
	t := l + (r-l)/2
	for iter := 0; iter < 100; iter++ {
		g := c.d1(t)
		if g == 0 {
			return t
		}
		if g < 0 {
			l = t
		} else {
			r = t
		}
		nt := t - g/c.d2(t)
		if !(nt > l && nt < r) {
			nt = l + (r-l)/2
		}
		if math.Abs(nt-t) <= 4e-16*math.Abs(t) || !(l < nt && nt < r) {
			return nt
		}
		t = nt
	}
	return t
}

// quadRoots returns the real roots of a·t² + b·t + c in ascending order and
// their count, degrading to the linear case when a is zero. The larger-
// magnitude root comes from the cancellation-free form and the other from
// the product of the roots.
func quadRoots(a, b, c float64) (float64, float64, int) {
	if a == 0 {
		if b == 0 {
			return 0, 0, 0
		}
		return -c / b, 0, 1
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0, 0, 0
	}
	sq := math.Sqrt(disc)
	if b < 0 {
		sq = -sq
	}
	qq := -(b + sq) / 2
	r1 := qq / a
	if qq == 0 {
		return r1, r1, 2
	}
	r2 := c / qq
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	return r1, r2, 2
}

// gradHess returns the gradient and Hessian of the surface at (x, y).
func (q *Quartic2D) gradHess(x, y float64) (gx, gy, hxx, hxy, hyy float64) {
	x2, y2 := x*x, y*y
	gx = q.C10 + 2*q.C20*x + 3*q.C30*x2 + 4*q.C40*x2*x +
		q.C11*y + q.C12*y2 + 2*q.C21*x*y + 2*q.C22*x*y2
	gy = q.C01 + 2*q.C02*y + 3*q.C03*y2 + 4*q.C04*y2*y +
		q.C11*x + 2*q.C12*x*y + q.C21*x2 + 2*q.C22*x2*y
	hxx = 2*q.C20 + 6*q.C30*x + 12*q.C40*x2 + 2*q.C21*y + 2*q.C22*y2
	hyy = 2*q.C02 + 6*q.C03*y + 12*q.C04*y2 + 2*q.C12*x + 2*q.C22*x2
	hxy = q.C11 + 2*q.C12*y + 2*q.C21*x + 4*q.C22*x*y
	return
}

// Minimize minimizes the surface on [xlo,xhi]×[ylo,yhi] by coordinate
// descent from the box centre — the search structure of Minimize2D, with
// the same sweep cap and stopping rule — but every axis search is exact
// (quartic1D.minimize) and each sweep ends with one Newton step on the
// coupled pair, clamped to the box and kept only if it lowers Eval. The
// exact searches remove golden-section's tolerance floor, and the Newton
// step cuts through the narrow valley that coordinate descent otherwise
// zig-zags along (DESIGN.md §10.2b).
//
//gpower:noalloc straight-line polynomial arithmetic on stack values
func (q *Quartic2D) Minimize(xlo, xhi, ylo, yhi, tol float64) (float64, float64, error) {
	if !(xlo < xhi) || !(ylo < yhi) {
		//gpower:allocs validation error path: an empty box never reaches the search
		return 0, 0, fmt.Errorf("linalg: Quartic2D minimize invalid box [%g,%g]x[%g,%g]", xlo, xhi, ylo, yhi)
	}
	if tol <= 0 {
		tol = 1e-9
	}
	x := (xlo + xhi) / 2
	y := (ylo + yhi) / 2
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		px, py := x, y
		ax := q.axis(true, y)
		x = ax.minimize(xlo, xhi)
		ay := q.axis(false, x)
		y = ay.minimize(ylo, yhi)
		x, y = q.newtonStep(x, y, xlo, xhi, ylo, yhi)
		if math.Abs(x-px) < tol && math.Abs(y-py) < tol {
			break
		}
	}
	return x, y, nil
}

// newtonStep takes one Newton step on the coupled pair from (x, y) when the
// Hessian there is positive definite, clamps it to the box and returns the
// new point if it lowers Eval, (x, y) otherwise.
func (q *Quartic2D) newtonStep(x, y, xlo, xhi, ylo, yhi float64) (float64, float64) {
	gx, gy, hxx, hxy, hyy := q.gradHess(x, y)
	det := hxx*hyy - hxy*hxy
	if !(hxx > 0 && det > 0) {
		return x, y
	}
	nx := clamp(x-(hyy*gx-hxy*gy)/det, xlo, xhi)
	ny := clamp(y-(hxx*gy-hxy*gx)/det, ylo, yhi)
	if q.Eval(nx, ny) < q.Eval(x, y) {
		return nx, ny
	}
	return x, y
}

func clamp(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}
