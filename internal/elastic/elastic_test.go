package elastic

import (
	"math"
	"testing"

	"windserve/internal/sim"
)

func TestWithDefaults(t *testing.T) {
	p := Policy{Enabled: true}.WithDefaults()
	if p.Every != sim.Seconds(0.25) || p.Cooldown != sim.Seconds(5) {
		t.Fatalf("periods: %+v", p)
	}
	if p.Ratio != 2 || p.MinPressure != 0.5 || p.MinPrefill != 1 || p.MinDecode != 1 {
		t.Fatalf("thresholds: %+v", p)
	}
	off := Policy{}.WithDefaults()
	if off != (Policy{}) {
		t.Fatalf("disabled policy must stay zero: %+v", off)
	}
}

func TestValidate(t *testing.T) {
	bad := []Policy{
		{Enabled: true, Every: -1},
		{Enabled: true, Cooldown: -1},
		{Enabled: true, Ratio: -0.5},
		{Enabled: true, MinPressure: -1},
		{Enabled: true, MinPrefill: -1},
		{Enabled: true, MinDecode: -2},
		{Enabled: true, Every: sim.Duration(math.NaN())},
		{Enabled: true, Cooldown: sim.Duration(math.Inf(1))},
		{Enabled: true, Ratio: math.NaN()},
		{Enabled: true, MinPressure: math.Inf(1)},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
	if err := (Policy{Enabled: false, Every: -1}).Validate(); err != nil {
		t.Errorf("disabled policy must not validate its fields: %v", err)
	}
	if err := Default().WithDefaults().Validate(); err != nil {
		t.Errorf("default policy invalid: %v", err)
	}
}

func TestDecide(t *testing.T) {
	p := Policy{Enabled: true, Ratio: 2, MinPressure: 0.5, MinPrefill: 1, MinDecode: 1}
	cases := []struct {
		name   string
		pp, dp float64
		ap, ad int
		want   Direction
	}{
		{"idle", 0.1, 0.1, 2, 2, None},
		{"prefill-hot", 1.2, 0.3, 2, 2, ToPrefill},
		{"decode-hot", 0.3, 1.2, 2, 2, ToDecode},
		{"below-floor-pressure", 0.4, 0.1, 2, 2, None},
		{"inside-hysteresis", 1.0, 0.8, 2, 2, None},
		{"decode-floor-blocks", 2.0, 0.1, 3, 1, None},
		{"prefill-floor-blocks", 0.1, 2.0, 1, 3, None},
		{"both-hot-balanced", 3.0, 2.9, 2, 2, None},
	}
	for _, c := range cases {
		if got := p.Decide(c.pp, c.dp, c.ap, c.ad); got != c.want {
			t.Errorf("%s: Decide(%v,%v,%d,%d) = %v, want %v", c.name, c.pp, c.dp, c.ap, c.ad, got, c.want)
		}
	}
}

// TestOverloadHysteresisMatchesHistoricalBrownout is the regression test
// for the unified pressure helper: the fleet's brown-out has always been
//
//	if !in && mean >= d  -> enter
//	if in  && mean <= d/2 -> exit
//
// and the flip controller now consults OverloadHysteresis on the same
// snapshot. Sweep the full small-integer space (including the d/2
// integer-division edge at odd depths) and assert exact equivalence.
func TestOverloadHysteresisMatchesHistoricalBrownout(t *testing.T) {
	for d := 0; d <= 33; d++ {
		for total := 0; total <= 200; total++ {
			for healthy := 0; healthy <= 9; healthy++ {
				mean := MeanQueueDepth(total, healthy)
				for _, in := range []bool{false, true} {
					// Historical inline logic from fleet.updateBrownout.
					want := in
					if d > 0 {
						if !in && mean >= d {
							want = true
						} else if in && mean <= d/2 {
							want = false
						}
					} else {
						want = false
					}
					if got := OverloadHysteresis(in, mean, d); got != want {
						t.Fatalf("OverloadHysteresis(%v, mean=%d, d=%d) = %v, want %v (total=%d healthy=%d)",
							in, mean, d, got, want, total, healthy)
					}
				}
			}
		}
	}
}

func TestMeanQueueDepth(t *testing.T) {
	if got := MeanQueueDepth(10, 0); got != 0 {
		t.Fatalf("no healthy replicas: %d", got)
	}
	if got := MeanQueueDepth(10, 3); got != 3 {
		t.Fatalf("integer division: %d", got)
	}
}
