// Package stats provides the small numerical toolbox WindServe needs:
// least-squares polynomial regression (used by the Profiler to fit the
// paper's eqs. 1–2), exact percentiles by selection, and P² streaming
// quantile sketches.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// ErrSingular is returned when a regression system has no unique solution
// (e.g. fewer distinct sample points than coefficients).
var ErrSingular = errors.New("stats: singular system, not enough distinct samples")

// PolyFit fits y ≈ c[0] + c[1]·x + … + c[degree]·x^degree by ordinary least
// squares and returns the coefficients, lowest order first.
//
// The Profiler uses degree 2 for prefill (T = c_p + a_p·N + b_p·N²) and
// degree 1 for decode (T = c_d + a_d·ΣL), matching the paper §3.2.1.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	if degree < 0 {
		return nil, fmt.Errorf("stats: negative degree %d", degree)
	}
	n := degree + 1
	if len(xs) < n {
		return nil, ErrSingular
	}
	// Normal equations: (VᵀV)c = Vᵀy with Vandermonde V.
	// Accumulate moments sum(x^k) for k=0..2·degree and sum(y·x^k).
	moments := make([]float64, 2*degree+1)
	rhs := make([]float64, n)
	for i, x := range xs {
		pk := 1.0
		for k := 0; k <= 2*degree; k++ {
			moments[k] += pk
			if k < n {
				rhs[k] += ys[i] * pk
			}
			pk *= x
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			a[i][j] = moments[i+j]
		}
		a[i][n] = rhs[i]
	}
	c, err := solveGauss(a)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// solveGauss solves the augmented system a (n×(n+1)) in place by Gaussian
// elimination with partial pivoting.
func solveGauss(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := a[i][n]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}

// PolyEval evaluates a polynomial with coefficients c (lowest order first)
// at x using Horner's rule.
func PolyEval(c []float64, x float64) float64 {
	y := 0.0
	for i := len(c) - 1; i >= 0; i-- {
		y = y*x + c[i]
	}
	return y
}

// PercentilesOf computes the percentiles ps of xs (0 <= p <= 100, linear
// interpolation between closest ranks), each NaN when xs is empty. xs is
// not modified.
func PercentilesOf(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	SelectPercentiles(slices.Clone(xs), out, ps...)
	return out
}

// rankOf locates percentile p among n sorted values: the closest ranks
// lo and hi, and hi's weight in the interpolation between them.
func rankOf(p float64, n int) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	rank := p / 100 * float64(n-1)
	lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// SelectPercentiles writes the percentiles ps (0 <= p <= 100, linear
// interpolation between closest ranks) of the non-empty xs into out,
// equal bit for bit to interpolating on xs sorted. Instead of
// sorting, it selects only the ranks each percentile interpolates
// between, in expected O(len(xs)) per percentile, and reorders xs doing
// so. NaNs order first, as in sort.Float64s.
func SelectPercentiles(xs, out []float64, ps ...float64) {
	n := len(xs)
	nan := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	// piv is a rank of rest already in place: nothing before it is
	// larger and nothing after it smaller, so later selections search
	// one side of it.
	rest, piv := xs[nan:], -1
	at := func(k int) float64 {
		if k < nan {
			return xs[k]
		}
		k -= nan
		switch {
		case piv < 0:
			selectKth(rest, k)
		case k > piv:
			selectKth(rest[piv+1:], k-piv-1)
		case k < piv:
			selectKth(rest[:piv], k)
		}
		piv = k
		return rest[k]
	}
	for i, p := range ps {
		lo, hi, frac := rankOf(p, n)
		if lo == hi {
			out[i] = at(lo)
			continue
		}
		a := at(lo)
		out[i] = a*(1-frac) + at(hi)*frac
	}
}

// selectKth reorders the NaN-free a so that a[k] holds its k-th smallest
// value, with nothing larger before it and nothing smaller after it:
// quickselect with median-of-three pivots and a three-way partition (so
// runs of equal values cost one pass), falling back to a sort if the
// partitions keep coming out lopsided.
func selectKth(a []float64, k int) {
	if k == 0 {
		m := 0
		for i := 1; i < len(a); i++ {
			if a[i] < a[m] {
				m = i
			}
		}
		a[0], a[m] = a[m], a[0]
		return
	}
	lo, hi := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a))); lo < hi; budget-- {
		if budget == 0 {
			slices.Sort(a[lo : hi+1])
			return
		}
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		pivot := max(min(x, y), min(max(x, y), z))
		// a[lo:lt] < pivot, a[lt:i] == pivot, a[gt+1:hi+1] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				a[i], a[gt] = a[gt], v
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return
		}
	}
}

// Mean returns the arithmetic mean of xs (NaN if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// R2 returns the coefficient of determination of predictions yhat against
// observations y; 1 means a perfect fit.
func R2(y, yhat []float64) float64 {
	if len(y) == 0 || len(y) != len(yhat) {
		return math.NaN()
	}
	m := Mean(y)
	var ssRes, ssTot float64
	for i := range y {
		d := y[i] - yhat[i]
		ssRes += d * d
		t := y[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}
