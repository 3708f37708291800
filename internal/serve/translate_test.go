package serve

import (
	"math"
	"reflect"
	"testing"

	"windserve/internal/fault"
	"windserve/internal/metrics"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// summaryDrift returns the first Summary field whose values differ by more
// than a relative tol, or "" when every field matches. Requests is an
// integer and must match exactly.
func summaryDrift(got, want metrics.Summary, tol float64) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		f := g.Type().Field(i).Name
		if g.Field(i).CanInt() {
			if g.Field(i).Int() != w.Field(i).Int() {
				return f
			}
			continue
		}
		a, b := g.Field(i).Float(), w.Field(i).Float()
		if math.Abs(a-b) > tol*math.Max(math.Abs(a), math.Abs(b)) {
			return f
		}
	}
	return ""
}

// shifted returns reqs with every arrival moved d later.
func shifted(reqs []workload.Request, d sim.Duration) []workload.Request {
	out := append([]workload.Request(nil), reqs...)
	for i := range out {
		out[i].Arrival = out[i].Arrival.Add(d)
	}
	return out
}

// shiftedPlan returns p with every event moved d later; nil stays nil.
func shiftedPlan(p *fault.Plan, d sim.Duration) *fault.Plan {
	if p == nil {
		return nil
	}
	out := &fault.Plan{Seed: p.Seed, Events: append([]fault.Event(nil), p.Events...)}
	for i := range out.Events {
		out.Events[i].At = out.Events[i].At.Add(d)
	}
	return out
}

// TestTimeTranslation is a metamorphic relation: moving every arrival
// (and every fault) later by the same amount changes no latency,
// attainment or rate. A period, warm start or deadline tied to absolute
// time fails it. sim.Time is float64 seconds, so the summaries match to
// a relative 1e-9, not bit for bit; the request partition matches
// exactly.
func TestTimeTranslation(t *testing.T) {
	reqs := trace13B(3, 300, 11)
	for _, row := range []struct {
		name   string
		run    runFn
		faults string
	}{
		{"DistServe", RunDistServe, ""},
		{"WindServe", RunWindServe, ""},
		{"vLLM", RunVLLM, ""},
		{"WindServe-chaos", RunWindServe, "crash:d0@20+5; slow:p0@10x2+10; cancel@25x0.2"},
	} {
		cfg := cfg13B(t)
		if row.faults != "" {
			cfg.Faults = mustPlan(t, 5, row.faults)
		}
		base, err := row.run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		plan := cfg.Faults
		for _, d := range []sim.Duration{sim.Milliseconds(1), sim.Seconds(1), sim.Seconds(100)} {
			cfg.Faults = shiftedPlan(plan, d)
			res, err := row.run(cfg, shifted(reqs, d))
			if err != nil {
				t.Fatalf("%s +%v: %v", row.name, d, err)
			}
			if res.Requests != base.Requests || res.Aborted != base.Aborted || res.Rejected != base.Rejected {
				t.Errorf("%s +%v: requests/aborted/rejected %d/%d/%d, unshifted %d/%d/%d", row.name, d,
					res.Requests, res.Aborted, res.Rejected, base.Requests, base.Aborted, base.Rejected)
			}
			if f := summaryDrift(res.Summary, base.Summary, 1e-9); f != "" {
				t.Errorf("%s +%v: Summary.%s moved:\nshifted   %+v\nunshifted %+v", row.name, d, f, res.Summary, base.Summary)
			}
		}
	}
}
