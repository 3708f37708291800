package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPolyFitExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	c, err := PolyFit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c[0], 3, 1e-9) || !almostEq(c[1], 2, 1e-9) {
		t.Fatalf("c = %v, want [3 2]", c)
	}
}

func TestPolyFitExactQuadratic(t *testing.T) {
	xs := []float64{1, 10, 100, 500, 1000, 2000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.5 + 0.001*x + 2e-7*x*x
	}
	c, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c[0], 0.5, 1e-6) || !almostEq(c[1], 0.001, 1e-8) || !almostEq(c[2], 2e-7, 1e-10) {
		t.Fatalf("c = %v", c)
	}
}

func TestPolyFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 4096
		xs = append(xs, x)
		ys = append(ys, 1+0.002*x+3e-8*x*x+rng.NormFloat64()*0.01)
	}
	c, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c[1], 0.002, 1e-4) {
		t.Errorf("linear coeff = %v, want ~0.002", c[1])
	}
	// Check fit quality.
	yhat := make([]float64, len(xs))
	for i, x := range xs {
		yhat[i] = PolyEval(c, x)
	}
	if r2 := R2(ys, yhat); r2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99", r2)
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 1); err == nil {
		t.Error("underdetermined should error")
	}
	if _, err := PolyFit([]float64{2, 2, 2}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("identical xs should be singular")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("negative degree should error")
	}
}

func TestPolyEval(t *testing.T) {
	// 2 + 3x + x^2 at x=2 → 2+6+4 = 12
	if v := PolyEval([]float64{2, 3, 1}, 2); v != 12 {
		t.Errorf("PolyEval = %v, want 12", v)
	}
	if v := PolyEval(nil, 5); v != 0 {
		t.Errorf("empty poly = %v, want 0", v)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {150, 5},
	}
	for _, c := range cases {
		if got := PercentilesOf(xs, c.p)[0]; !almostEq(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between ranks.
	if got := PercentilesOf([]float64{0, 10}, 50)[0]; !almostEq(got, 5, 1e-9) {
		t.Errorf("interpolated median = %v, want 5", got)
	}
}

func TestPercentilesOf(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := PercentilesOf(xs, 0, 50, 100)
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PercentilesOf = %v, want %v", got, want)
		}
	}
	for _, v := range PercentilesOf(nil, 50, 90) {
		if !math.IsNaN(v) {
			t.Error("empty input should yield NaN")
		}
	}
}

func TestSummaryStats(t *testing.T) {
	if m := Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEq(m, 5, 1e-9) {
		t.Errorf("Mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty input should yield NaN")
	}
}

func TestR2(t *testing.T) {
	y := []float64{1, 2, 3}
	if r := R2(y, y); r != 1 {
		t.Errorf("perfect R2 = %v", r)
	}
	if r := R2(y, []float64{2, 2, 2}); r != 0 {
		t.Errorf("mean-predictor R2 = %v, want 0", r)
	}
	if !math.IsNaN(R2(nil, nil)) {
		t.Error("empty R2 should be NaN")
	}
	if !math.IsNaN(R2(y, []float64{1})) {
		t.Error("length mismatch R2 should be NaN")
	}
	if r := R2([]float64{5, 5}, []float64{5, 5}); r != 1 {
		t.Errorf("constant exact fit R2 = %v, want 1", r)
	}
}

// Property: fitting points generated by a polynomial recovers it.
func TestPropertyPolyFitRoundTrip(t *testing.T) {
	f := func(a, b, c int16) bool {
		c0, c1, c2 := float64(a)/100, float64(b)/1000, float64(c)/100000
		xs := []float64{1, 3, 7, 20, 55, 130, 400}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = c0 + c1*x + c2*x*x
		}
		got, err := PolyFit(xs, ys, 2)
		if err != nil {
			return false
		}
		return almostEq(got[0], c0, 1e-5) && almostEq(got[1], c1, 1e-7) && almostEq(got[2], c2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := PercentilesOf(xs, p)[0]
			if v < prev || v < slices.Min(xs)-1e-9 || v > slices.Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// percentileSorted is the p-th percentile of data already sorted
// ascending and non-empty, interpolating linearly between closest ranks.
func percentileSorted(sorted []float64, p float64) float64 {
	lo, hi, frac := rankOf(p, len(sorted))
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedPercentiles is the sort-based reference SelectPercentiles must
// match bit for bit.
func sortedPercentiles(xs []float64, ps []float64) []float64 {
	sorted := slices.Clone(xs)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// TestPropertySelectMatchesSort: selected percentiles equal the sorted
// reference bit for bit on random inputs with many duplicates, at short
// lengths where the closest ranks collide, on orderings that defeat naive
// pivots, with NaNs, and for ps in any order.
func TestPropertySelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pss := [][]float64{
		{0, 50, 90, 99, 100},
		{99, 0, 50, 100, 90},
		{50}, {90, 90}, {100, 0}, {12.5, 33, 66.6, 99.9},
	}
	gen := []func(n int) []float64{
		func(n int) []float64 { // few distinct values
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(4)) - 1
			}
			return xs
		},
		func(n int) []float64 { // continuous, with some repeats
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.ExpFloat64()
				if i > 0 && rng.Intn(4) == 0 {
					xs[i] = xs[rng.Intn(i)]
				}
			}
			return xs
		},
		func(n int) []float64 { // ascending
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i / 3)
			}
			return xs
		},
		func(n int) []float64 { // descending
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
		func(n int) []float64 { // organ pipe
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(min(i, n-1-i))
			}
			return xs
		},
		func(n int) []float64 { // NaNs among values
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Float64()
				if rng.Intn(5) == 0 {
					xs[i] = math.NaN()
				}
			}
			return xs
		},
	}
	lengths := []int{1, 2, 3, 4, 5, 7, 16, 101, 1000, 4097}
	for trial := 0; trial < 8; trial++ {
		for gi, g := range gen {
			for _, n := range lengths {
				xs := g(n)
				for _, ps := range pss {
					want := sortedPercentiles(xs, ps)
					work := slices.Clone(xs)
					got := make([]float64, len(ps))
					SelectPercentiles(work, got, ps...)
					for i := range ps {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("gen %d n %d ps %v: P%v = %v, want %v", gi, n, ps, ps[i], got[i], want[i])
						}
					}
					ref := slices.Clone(xs)
					slices.Sort(ref)
					slices.Sort(work)
					if !slices.EqualFunc(work, ref, func(a, b float64) bool {
						return math.Float64bits(a) == math.Float64bits(b)
					}) {
						t.Fatalf("gen %d n %d: selection lost or changed values", gi, n)
					}
				}
			}
		}
	}
}
