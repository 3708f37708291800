// Package elastic decides prefill↔decode role flips for a serving
// replica. The controller itself lives in the fleet router (it owns the
// delayed load views and the decision log); this package holds the pure
// decision logic — pressure signals, hysteresis, cooldown bookkeeping —
// so the router and the brown-out machinery share one notion of
// "pressure" and a property test can sweep the policy without standing
// up a fleet.
package elastic

import (
	"fmt"
	"math"

	"windserve/internal/sim"
)

// Policy parameterizes the role-flip controller.
type Policy struct {
	// Enabled turns elastic role flipping on. All other fields are
	// ignored (and may stay zero) when false.
	Enabled bool
	// Every is the controller's evaluation period. Default 250ms.
	Every sim.Duration
	// Cooldown is the minimum spacing between flips of the same replica,
	// so a flip's drain/migration cost is amortized before the next
	// decision. Default 5s.
	Cooldown sim.Duration
	// Ratio is the hysteresis factor: a flip toward a role requires that
	// role's pressure to exceed the other's by at least this ratio.
	// Default 2.
	Ratio float64
	// MinPressure gates flips entirely until the winning side's pressure
	// (predicted latency / SLO target) reaches this floor — a idle
	// cluster must not oscillate on noise. Default 0.5.
	MinPressure float64
	// MinPrefill / MinDecode are the per-role instance floors a flip may
	// never violate. Default 1 each.
	MinPrefill, MinDecode int
}

// Default returns the policy used by exhibits and windbench -elastic.
func Default() Policy {
	return Policy{Enabled: true}
}

// WithDefaults fills zero fields with the documented defaults.
func (p Policy) WithDefaults() Policy {
	if !p.Enabled {
		return p
	}
	if p.Every <= 0 {
		p.Every = sim.Seconds(0.25)
	}
	if p.Cooldown <= 0 {
		p.Cooldown = sim.Seconds(5)
	}
	if p.Ratio <= 0 {
		p.Ratio = 2
	}
	if p.MinPressure <= 0 {
		p.MinPressure = 0.5
	}
	if p.MinPrefill <= 0 {
		p.MinPrefill = 1
	}
	if p.MinDecode <= 0 {
		p.MinDecode = 1
	}
	return p
}

// Validate rejects nonsensical policies before a run starts, with an
// error naming the field. Non-finite values are rejected too: a NaN
// period never advances the controller's clock, and an infinite cooldown
// or threshold silently disables every flip.
func (p Policy) Validate() error {
	if !p.Enabled {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Every", float64(p.Every)},
		{"Cooldown", float64(p.Cooldown)},
		{"Ratio", p.Ratio},
		{"MinPressure", p.MinPressure},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("elastic: %s %g must be finite and non-negative", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MinPrefill", p.MinPrefill},
		{"MinDecode", p.MinDecode},
	} {
		if f.v < 0 {
			return fmt.Errorf("elastic: %s %d is negative", f.name, f.v)
		}
	}
	return nil
}

// Direction is a flip decision.
type Direction int

const (
	// None: leave the replica as it is.
	None Direction = iota
	// ToPrefill: convert one acting-decode instance to prefill.
	ToPrefill
	// ToDecode: convert one acting-prefill instance to decode.
	ToDecode
)

func (d Direction) String() string {
	switch d {
	case ToPrefill:
		return "to-prefill"
	case ToDecode:
		return "to-decode"
	default:
		return "none"
	}
}

// Decide maps a pair of pressures onto a flip direction under the
// policy's hysteresis and role floors. prefillPressure and
// decodePressure are dimensionless (predicted latency over SLO target;
// 1.0 = at the objective). A flip toward the loaded role requires its
// pressure to reach MinPressure AND exceed the other side by Ratio, and
// must leave the shrinking role above its floor.
func (p Policy) Decide(prefillPressure, decodePressure float64, actPrefill, actDecode int) Direction {
	if prefillPressure >= p.MinPressure && prefillPressure >= p.Ratio*decodePressure && actDecode > p.MinDecode {
		return ToPrefill
	}
	if decodePressure >= p.MinPressure && decodePressure >= p.Ratio*prefillPressure && actPrefill > p.MinPrefill {
		return ToDecode
	}
	return None
}

// MeanQueueDepth is the fleet's shared overload signal: total queued
// requests per healthy replica (integer division, matching the router's
// historical brown-out arithmetic). Zero when no replica is healthy.
func MeanQueueDepth(total, healthy int) int {
	if healthy <= 0 {
		return 0
	}
	return total / healthy
}

// OverloadHysteresis advances a brown-out-style overload latch one
// snapshot: entering requires the mean depth to reach enter, exiting
// requires it to fall to enter/2 (integer division) — the exact
// hysteresis the fleet brown-out has always used. The flip controller
// consults the same latch on the same snapshot, so the two controllers
// cannot disagree about whether the fleet is overloaded. enter <= 0
// disables the latch.
func OverloadHysteresis(in bool, mean, enter int) bool {
	if enter <= 0 {
		return false
	}
	if in {
		return mean > enter/2
	}
	return mean >= enter
}
