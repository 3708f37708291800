package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"windserve/internal/elastic"
	"windserve/internal/serve"
	"windserve/internal/workload"
)

// TestOneReplicaFleetIsTestbed is the differential oracle between the
// fleet and the testbed: a one-replica DistServe fleet serves each
// request exactly as a testbed DistServe run does once the request's
// arrival is shifted by the router→replica hop (netDelay). The fleet
// records arrivals at the router, so every TTFT and prefill-queue time
// reads one netDelay higher, up to float rounding of the shifted arrival
// times (bounded here at 1e-12 s); TPOT and decode-queue times are the
// same events and must match exactly.
func TestOneReplicaFleetIsTestbed(t *testing.T) {
	const ulps = 1e-12 // seconds
	for _, rate := range []float64{4, 8, 12} {
		tag := fmt.Sprintf("%v req/s", rate)
		reqs := trace(400, rate, 7)
		cfg := testConfig(t, 1)
		cfg.FailoverTimeout = 0
		fres, err := Run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		shifted := make([]workload.Request, len(reqs))
		for i, r := range reqs {
			r.Arrival = r.Arrival.Add(netDelay)
			shifted[i] = r
		}
		tcfg := cfg.Replica
		tcfg.Horizon = cfg.Horizon
		tres, err := serve.RunDistServe(tcfg, shifted)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if fres.Completed != len(reqs) || len(tres.Records) != len(reqs) {
			t.Fatalf("%s: %d fleet and %d testbed completions of %d", tag, fres.Completed, len(tres.Records), len(reqs))
		}
		f, b := fres.Summary, tres.Summary
		for _, d := range []struct {
			name         string
			fleet, testb float64
		}{
			{"TTFT p50", f.TTFTP50.Seconds(), b.TTFTP50.Seconds()},
			{"TTFT p90", f.TTFTP90.Seconds(), b.TTFTP90.Seconds()},
			{"TTFT p99", f.TTFTP99.Seconds(), b.TTFTP99.Seconds()},
			{"TTFT mean", f.TTFTMean.Seconds(), b.TTFTMean.Seconds()},
			{"prefill-queue mean", f.PrefillQueueMean.Seconds(), b.PrefillQueueMean.Seconds()},
		} {
			if got := d.fleet - d.testb; math.Abs(got-netDelay.Seconds()) > ulps {
				t.Errorf("%s: fleet %s is %.15f s above the testbed's, want %v", tag, d.name, got, netDelay)
			}
		}
		if f.TPOTP50 != b.TPOTP50 || f.TPOTP90 != b.TPOTP90 || f.TPOTP99 != b.TPOTP99 || f.TPOTMean != b.TPOTMean {
			t.Errorf("%s: TPOT differs: fleet %v/%v/%v/%v, testbed %v/%v/%v/%v", tag,
				f.TPOTP50, f.TPOTP90, f.TPOTP99, f.TPOTMean, b.TPOTP50, b.TPOTP90, b.TPOTP99, b.TPOTMean)
		}
		if f.DecodeQueueMean != b.DecodeQueueMean || f.DecodeQueueP99 != b.DecodeQueueP99 {
			t.Errorf("%s: decode queue differs: fleet %v/%v, testbed %v/%v", tag,
				f.DecodeQueueMean, f.DecodeQueueP99, b.DecodeQueueMean, b.DecodeQueueP99)
		}
	}
}

// TestIdleElasticFleetIsStatic is the differential oracle between the
// elastic and the static fleet: with a policy that never fires
// (MinPressure far above any reachable pressure) the elastic wiring and
// the controller's ticks must change nothing a request sees.
//
// Elapsed, and the mean utilizations taken over it, are left out. One
// measurement saw an elastic run end 0.099 s later (16 req/s, 1,500
// requests), likely because the controller's last tick outlived the last
// completion; these runs do not show it. Whether Elapsed should end at
// the last lifecycle event is an open question, and answering it moves
// the elastic half of results/fleet.txt.
func TestIdleElasticFleetIsStatic(t *testing.T) {
	for _, rate := range []float64{8, 16, 24} {
		tag := fmt.Sprintf("%v req/s", rate)
		reqs := trace(400, rate, 7)
		cfg := testConfig(t, 2)
		static, err := Run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		cfg.Elastic = elastic.Policy{Enabled: true, MinPressure: 1e9}
		idle, err := Run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if idle.Flips != 0 {
			t.Fatalf("%s: the idle policy flipped %d times", tag, idle.Flips)
		}
		for _, r := range []*Result{static, idle} {
			r.Elapsed, r.MeanPrefillUtil, r.MeanDecodeUtil = 0, 0, 0
		}
		if !reflect.DeepEqual(static, idle) {
			t.Errorf("%s: idle elastic fleet differs from the static one:\nstatic %+v\nidle   %+v", tag, *static, *idle)
		}
	}
}
