package fleet

import (
	"runtime"
	"testing"

	"windserve/internal/sim"
	"windserve/internal/workload"
)

// TestFleetAllocsPerRequest is the fleet's per-request heap allocation
// budget, on a two-shard chaos fleet with every per-request timer armed:
// failover timers, their brown-out deferrals and TTFT deadlines. The
// faults land early, so both stream sizes pass through them alike and the
// difference of their allocation counts is the steady state's own. What
// is left per request is the router's reqState and the replica's flight;
// the timers, the calendar and the events allocate nothing per request.
func TestFleetAllocsPerRequest(t *testing.T) {
	cfg := testConfig(t, 8)
	cfg.Shards = 2
	cfg.Policy = "weighted"
	cfg.FailoverTimeout = sim.Seconds(10)
	cfg.TTFTDeadline = sim.Seconds(60)
	cfg.MaxQueueDepth = 512
	cfg.BrownoutDepth = 8
	cfg.Faults = mustPlan(t, "rcrash:r0@2+6; rpart:r3@6+3; cancel@9x0.05; rslow:r5@2x8+20")
	rate := 3.0 * float64(cfg.Replica.TotalGPUs()) * float64(cfg.NumReplicas)
	var res *Result
	mallocs := func(n int) uint64 {
		src := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: rate}, 42).Source(n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var err error
		res, err = RunFrom(cfg, src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != n {
			t.Fatalf("%d of %d requests recorded", res.Requests, n)
		}
		return after.Mallocs - before.Mallocs
	}
	small, large := mallocs(4_000), mallocs(16_000)
	if res.FailedOver == 0 || res.BrownoutSec == 0 {
		t.Fatalf("the chaos plan caused %d failovers and %gs of brown-out, want both", res.FailedOver, res.BrownoutSec)
	}
	per := float64(large-small) / 12_000
	t.Logf("%.3f heap allocations per request (%d at 4k requests, %d at 16k)", per, small, large)
	if per > 2.5 {
		t.Errorf("%.3f heap allocations per request, budget 2.5", per)
	}
}
