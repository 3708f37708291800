package fleet

import (
	"math"
	"reflect"
	"testing"

	"windserve/internal/fault"
	"windserve/internal/sim"
)

// TestFleetTimeTranslation: moving every arrival and every fault of a
// 2-shard chaos fleet 1 s later — 40 load-report periods — leaves every
// Summary field within a relative 1e-9 and the request partition exact.
// A period or warm start tied to absolute time fails it.
func TestFleetTimeTranslation(t *testing.T) {
	const shift = sim.Duration(1)
	cfg := testConfig(t, 4)
	cfg.Shards = 2
	cfg.Policy = "least-loaded"
	cfg.FailoverTimeout = sim.Seconds(10)
	cfg.Faults = mustPlan(t, "rcrash:r1@10+20; rpart:r3@25+10; cancel@30x0.1")
	cfg.Faults.Seed = 4
	reqs := trace(400, 10, 4)
	base, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}

	plan := &fault.Plan{Seed: cfg.Faults.Seed, Events: append([]fault.Event(nil), cfg.Faults.Events...)}
	for i := range plan.Events {
		plan.Events[i].At = plan.Events[i].At.Add(shift)
	}
	cfg.Faults = plan
	moved := append(reqs[:0:0], reqs...)
	for i := range moved {
		moved[i].Arrival = moved[i].Arrival.Add(shift)
	}
	res, err := Run(cfg, moved)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != base.Requests || res.Aborted != base.Aborted || res.Rejected != base.Rejected {
		t.Errorf("requests/aborted/rejected %d/%d/%d, unshifted %d/%d/%d",
			res.Requests, res.Aborted, res.Rejected, base.Requests, base.Aborted, base.Rejected)
	}
	g, w := reflect.ValueOf(res.Summary), reflect.ValueOf(base.Summary)
	for i := 0; i < g.NumField(); i++ {
		var a, b float64
		if g.Field(i).CanInt() {
			a, b = float64(g.Field(i).Int()), float64(w.Field(i).Int())
		} else {
			a, b = g.Field(i).Float(), w.Field(i).Float()
		}
		if math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
			t.Errorf("Summary.%s moved: shifted %v, unshifted %v", g.Type().Field(i).Name, a, b)
		}
	}
}
