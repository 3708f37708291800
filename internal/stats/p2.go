package stats

import "sort"

// P2Quantile estimates one quantile of a stream with the P² algorithm
// (Jain & Chlamtac, CACM 1985): five markers bracket the target quantile
// and are nudged by parabolic interpolation as observations arrive, giving
// O(1) memory and O(1) time per observation. The estimate is a pure
// function of the observation sequence, so streaming runs stay
// deterministic. Typical relative error against the exact percentile is
// well under 1% for smooth distributions (pinned by tests).
type P2Quantile struct {
	p    float64    // target quantile in (0, 1)
	n    int        // observations seen
	q    [5]float64 // marker heights
	pos  [5]float64 // actual marker positions (1-based ranks)
	want [5]float64 // desired marker positions
	dn   [5]float64 // desired-position increments per observation
	init [5]float64 // the first five observations, before markers exist
}

// NewP2Quantile returns an estimator for quantile p in (0, 1), e.g. 0.99.
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("stats: P² quantile must be in (0, 1)")
	}
	s := &P2Quantile{p: p}
	s.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return s
}

// Quantile returns the target quantile the estimator tracks.
func (s *P2Quantile) Quantile() float64 { return s.p }

// Count returns the number of observations added.
func (s *P2Quantile) Count() int { return s.n }

// Add feeds one observation.
func (s *P2Quantile) Add(x float64) {
	if s.n < 5 {
		s.init[s.n] = x
		s.n++
		if s.n == 5 {
			q := s.init
			sort.Float64s(q[:])
			s.q = q
			s.pos = [5]float64{1, 2, 3, 4, 5}
			p := s.p
			s.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	// Locate the cell x falls in, extending the extremes if needed.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	s.n++
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := 0; i < 5; i++ {
		s.want[i] += s.dn[i]
	}
	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.want[i] - s.pos[i]
		if (d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			qn := s.parabolic(i, sign)
			if !(s.q[i-1] < qn && qn < s.q[i+1]) {
				qn = s.linear(i, sign)
			}
			// Clamp to the neighbors: on duplicate-heavy streams the
			// parabolic test above passes with equal neighbor heights
			// and the linear fallback can still land outside
			// [q[i-1], q[i+1]] (the classic P² failure), after which the
			// marker invariant — and the estimate — never recovers.
			if qn < s.q[i-1] {
				qn = s.q[i-1]
			} else if qn > s.q[i+1] {
				qn = s.q[i+1]
			}
			s.q[i] = qn
			s.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic marker adjustment.
func (s *P2Quantile) parabolic(i int, d float64) float64 {
	return s.q[i] + d/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+d)*(s.q[i+1]-s.q[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-d)*(s.q[i]-s.q[i-1])/(s.pos[i]-s.pos[i-1]))
}

// linear is the fallback adjustment when the parabola overshoots a
// neighboring marker.
func (s *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return s.q[i] + d*(s.q[j]-s.q[i])/(s.pos[j]-s.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it falls back to the exact percentile of what has been
// seen; with none it returns 0 (matching an empty Summary).
func (s *P2Quantile) Value() float64 {
	if s.n == 0 {
		return 0
	}
	if s.n < 5 {
		head, v := s.init, [1]float64{}
		SelectPercentiles(head[:s.n], v[:], s.p*100)
		return v[0]
	}
	return s.q[2]
}
