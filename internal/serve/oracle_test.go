package serve

import (
	"fmt"
	"testing"

	"windserve/internal/metrics"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// TestEmptyMechanismSetIsDistServe is the differential oracle between the
// two testbed systems: WindServe with all five mechanisms off must be
// DistServe record for record — completions, aborts, crash recoveries,
// traffic and the clock — across 1 and 2 prefill instances, clean runs,
// crash/slow/degrade/cancel plans and deadline shedding. The DistServe
// run must also show no mechanism activity, which catches a mechanism
// firing with its flag off; the long-output row fills decode KV, the
// pressure rescheduling and backups answer.
func TestEmptyMechanismSetIsDistServe(t *testing.T) {
	rows := []struct {
		name   string
		np, nd int
		rate   float64
		faults string
		shed   bool
		long   bool // 512-token prompts, 1,024-token outputs
	}{
		{"1P1D@3", 1, 1, 3, "", false, false},
		{"1P1D@5", 1, 1, 5, "", false, false},
		{"1P2D", 1, 2, 4, "", false, false},
		{"1P2D-chaos", 1, 2, 4, "crash:d0@20; slow:p0@5x2+15; degrade@10x0.3+20; cancel@25x0.25", true, false},
		{"2P2D", 2, 2, 4, "", false, false},
		{"2P1D-crash", 2, 1, 4, "crash:p0@15+10; cancel@30x0.2", false, false},
		{"1P1D-crash", 1, 1, 3, "crash:d0@20+5", false, false},
		{"1P1D-long", 1, 1, 1, "", false, true},
	}
	records := func(rs []*metrics.Record) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = fmt.Sprintf("%+v", *r)
		}
		return out
	}
	for _, seed := range []int64{1, 7} {
		for _, row := range rows {
			tag := fmt.Sprintf("%s seed %d", row.name, seed)
			cfg := cfg13B(t)
			cfg.NumPrefill, cfg.NumDecode = row.np, row.nd
			if row.faults != "" {
				cfg.Faults = mustPlan(t, seed, row.faults)
			}
			if row.shed {
				cfg.Shed = ShedPolicy{TTFTDeadline: sim.Seconds(3)}
			}
			reqs := trace13B(row.rate, 500, seed)
			if row.long {
				g := workload.NewGenerator(workload.Fixed(512, 1024, 2048), workload.PoissonArrivals{Rate: row.rate * 4}, seed)
				reqs = g.Generate(300)
			}
			dist, err := RunDistServe(cfg, reqs)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			w := &cfg.Wind
			w.DisableSBD, w.DisableResched, w.DisableDispatch, w.DisableAsyncTransfer, w.DisableBackup = true, true, true, true, true
			wind, err := RunWindServe(cfg, reqs)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for _, part := range []struct {
				name       string
				dist, wind []*metrics.Record
			}{
				{"completed", dist.Records, wind.Records},
				{"aborted", dist.AbortedRecords, wind.AbortedRecords},
			} {
				a, b := records(part.dist), records(part.wind)
				if len(a) != len(b) {
					t.Errorf("%s: %d %s records in DistServe, %d with no mechanisms", tag, len(a), part.name, len(b))
					continue
				}
				differ := 0
				for i := range a {
					if a[i] != b[i] {
						differ++
					}
				}
				if differ > 0 {
					t.Errorf("%s: %d of %d %s records differ", tag, differ, len(a), part.name)
				}
			}
			if dist.Recovered != wind.Recovered || dist.TransferGB != wind.TransferGB || dist.Elapsed != wind.Elapsed {
				t.Errorf("%s: recovered %d/%d, transfer %v/%v GB, elapsed %v/%v (DistServe/no mechanisms)", tag,
					dist.Recovered, wind.Recovered, dist.TransferGB, wind.TransferGB, dist.Elapsed, wind.Elapsed)
			}
			if dist.Dispatched+dist.Rescheduled+dist.Backups+dist.AsyncXfers != 0 || dist.MigrationGB != 0 || dist.TransferRateBps != 0 {
				t.Errorf("%s: DistServe ran a mechanism: %d dispatched, %d rescheduled, %d backups, %d async, %v GB migrated, transfer rate %v",
					tag, dist.Dispatched, dist.Rescheduled, dist.Backups, dist.AsyncXfers, dist.MigrationGB, dist.TransferRateBps)
			}
		}
	}
}
