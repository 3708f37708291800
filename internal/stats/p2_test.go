package stats

import (
	"math"
	"math/rand"
	"testing"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestP2ErrorBounds pins the sketch's accuracy contract: within 1%
// relative error of the exact percentile at p50 and p99 on 100k samples,
// across distribution shapes a latency stream actually takes (uniform,
// exponential tail, lognormal).
func TestP2ErrorBounds(t *testing.T) {
	dists := []struct {
		name string
		draw func(rng *rand.Rand) float64
	}{
		{"uniform", func(rng *rand.Rand) float64 { return rng.Float64() * 10 }},
		{"exponential", func(rng *rand.Rand) float64 { return rng.ExpFloat64() * 0.25 }},
		{"lognormal", func(rng *rand.Rand) float64 { return math.Exp(rng.NormFloat64() * 0.8) }},
	}
	for _, d := range dists {
		for _, p := range []float64{0.5, 0.99} {
			rng := rand.New(rand.NewSource(42))
			sketch := NewP2Quantile(p)
			xs := make([]float64, 100_000)
			for i := range xs {
				xs[i] = d.draw(rng)
				sketch.Add(xs[i])
			}
			exact := PercentilesOf(xs, p*100)[0]
			if e := relErr(sketch.Value(), exact); e > 0.01 {
				t.Errorf("%s p%g: sketch=%.6f exact=%.6f relative error %.4f > 1%%",
					d.name, p*100, sketch.Value(), exact, e)
			}
		}
	}
}

// TestP2SmallN: below five observations the estimator must be exact.
func TestP2SmallN(t *testing.T) {
	s := NewP2Quantile(0.5)
	if s.Value() != 0 {
		t.Errorf("empty sketch Value = %v, want 0", s.Value())
	}
	s.Add(3)
	if s.Value() != 3 {
		t.Errorf("single-sample Value = %v, want 3", s.Value())
	}
	s.Add(1)
	s.Add(2)
	if s.Value() != 2 {
		t.Errorf("3-sample median = %v, want 2", s.Value())
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
}

// TestP2Deterministic: identical streams give identical estimates.
func TestP2Deterministic(t *testing.T) {
	run := func() float64 {
		rng := rand.New(rand.NewSource(7))
		s := NewP2Quantile(0.9)
		for i := 0; i < 10_000; i++ {
			s.Add(rng.NormFloat64())
		}
		return s.Value()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("P² not deterministic: %v != %v", a, b)
	}
}

// checkMarkers asserts the P² marker-height invariant q[0] ≤ … ≤ q[4];
// once it breaks the estimate can wander arbitrarily far and never
// recover.
func checkMarkers(t *testing.T, s *P2Quantile, what string) {
	t.Helper()
	if s.n < 5 {
		return
	}
	for i := 1; i < 5; i++ {
		if s.q[i] < s.q[i-1] {
			t.Fatalf("%s: marker heights non-monotone: q=%v", what, s.q)
		}
	}
}

// TestP2DuplicateHeavyStreams is the satellite regression: the classic P²
// failure mode is a duplicate-heavy stream, where the parabolic update's
// strict-inequality guard passes with equal neighbor heights and the
// linear fallback lands outside [q[i-1], q[i+1]]. The clamped update must
// keep marker heights monotone and the estimate near the exact percentile
// on constant, two-value, and adversarial step streams.
func TestP2DuplicateHeavyStreams(t *testing.T) {
	streams := []struct {
		name string
		gen  func(i int) float64
		tol  float64 // absolute tolerance vs the exact percentile
	}{
		{"constant", func(i int) float64 { return 7 }, 0},
		// 30% of mass at 5: the tested percentiles (50/90/99) all sit
		// inside a constant run, not on the jump at p70.
		{"two-value", func(i int) float64 {
			if i%10 < 3 {
				return 5
			}
			return 1
		}, 0.01},
		{"step", func(i int) float64 { // long constant runs with jumps
			return float64(i / 2500)
		}, 1},
		{"alternating-step", func(i int) float64 { // dup runs straddling the median
			switch {
			case i%100 < 49:
				return 2
			case i%100 < 98:
				return 4
			default:
				return float64(i % 7)
			}
		}, 1},
	}
	for _, st := range streams {
		for _, p := range []float64{0.5, 0.9, 0.99} {
			s := NewP2Quantile(p)
			xs := make([]float64, 10_000)
			for i := range xs {
				xs[i] = st.gen(i)
				s.Add(xs[i])
				checkMarkers(t, s, st.name)
			}
			exact := PercentilesOf(xs, p*100)[0]
			if d := math.Abs(s.Value() - exact); d > st.tol {
				t.Errorf("%s p%g: sketch=%v exact=%v (|Δ|=%v > %v)",
					st.name, p*100, s.Value(), exact, d, st.tol)
			}
		}
	}
}

// BenchmarkPercentilesOf measures three percentiles of one slice: a
// copy and one selection pass per percentile, no sort.
func BenchmarkPercentilesOf(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PercentilesOf(xs, 50, 90, 99)
	}
}

func BenchmarkP2Add(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	s := NewP2Quantile(0.99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&4095])
	}
}
