package fleet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"windserve/internal/elastic"
	"windserve/internal/sched"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// elasticConfig is a 4-replica fleet of 2P+2D replicas with an eager flip
// policy — low thresholds and a short cooldown so tests exercise flips in
// seconds of virtual time, floors at one instance per role.
func elasticConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig(t, 4)
	cfg.Replica.NumPrefill = 2
	cfg.Replica.NumDecode = 2
	cfg.Policy = "least-loaded"
	cfg.Elastic = elastic.Policy{
		Enabled:     true,
		Every:       sim.Seconds(0.05),
		Cooldown:    sim.Seconds(1),
		Ratio:       1.1,
		MinPressure: 0.05,
		MinPrefill:  1,
		MinDecode:   1,
	}
	return cfg
}

// mixShiftTrace alternates a prompt-heavy phase (long prefills, near-no
// decode) with a decode-heavy one — the workload shape whose optimal
// prefill:decode split moves, which is what role flipping exploits.
func mixShiftTrace(t *testing.T, n int, seed int64) []workload.Request {
	t.Helper()
	maxCtx := 2048
	heavyPrompt := workload.NewGenerator(workload.Fixed(1200, 16, maxCtx),
		workload.PoissonArrivals{Rate: 20}, seed).Generate(n / 2)
	heavyDecode := workload.NewGenerator(workload.Fixed(64, 256, maxCtx),
		workload.PoissonArrivals{Rate: 20}, seed+1000).Generate(n - n/2)
	return workload.Concat(heavyPrompt, heavyDecode, sim.Seconds(2))
}

// TestElasticFlipExactlyOnce is the role-change extension of the fleet's
// exactly-once property: across 10 seeds of mix-shifting load plus
// replica chaos (crash, partition, client cancels), with flips firing
// eagerly, every request still ends in exactly one lifecycle state —
// migrating a decode stream between instances mid-flight never drops or
// duplicates it.
func TestElasticFlipExactlyOnce(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cfg := elasticConfig(t)
		cfg.FailoverTimeout = sim.Seconds(20)
		cfg.Faults = mustPlan(t, "rcrash:r1@20+15; rpart:r2@40+10; cancel@30x0.05")
		cfg.Faults.Seed = seed
		cfg.Decisions = sched.NewDecisionLog()
		res, err := Run(cfg, mixShiftTrace(t, 300, seed))
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, res)
		if res.Unfinished != 0 {
			t.Fatalf("seed %d: %d unfinished after drain", seed, res.Unfinished)
		}
		if res.Flips == 0 {
			t.Fatalf("seed %d: mix-shift + eager policy executed no flips", seed)
		}
		if res.LiveKVBlocks != 0 {
			t.Fatalf("seed %d: KV leak after elastic run: %d blocks", seed, res.LiveKVBlocks)
		}
		flipRoutes := 0
		for _, rr := range cfg.Decisions.Routes {
			if len(rr.Reason) >= 5 && rr.Reason[:5] == "flip-" {
				flipRoutes++
			}
		}
		if flipRoutes == 0 {
			t.Fatalf("seed %d: %d flips executed but none logged with a trigger", seed, res.Flips)
		}
	}
}

// TestElasticMigratesStreams checks the flip-to-prefill path actually
// migrates running decode streams (not just the empty-batch easy case).
func TestElasticMigratesStreams(t *testing.T) {
	cfg := elasticConfig(t)
	res, err := Run(cfg, mixShiftTrace(t, 400, 42))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res)
	if res.Flips == 0 {
		t.Fatal("no flips executed")
	}
	if res.FlipMigrated == 0 && res.FlipRequeued == 0 {
		t.Fatalf("flips executed (%d) but drained nothing: %+v", res.Flips, res)
	}
}

// elasticDigest mirrors shard_test's digest for an elastic run: printed
// Result plus a SHA-256 of the decision log.
func elasticDigest(t *testing.T, cfg Config, seed int64) (string, [32]byte) {
	t.Helper()
	cfg.Decisions = sched.NewDecisionLog()
	res, err := Run(cfg, mixShiftTrace(t, 300, seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Decisions.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", res), sha256.Sum256(buf.Bytes())
}

// TestElasticShardDeterminism extends the sharded-determinism gate to
// role flips: mFlip/mFlipDone and the signal-bearing load reports cross
// the netDelay wire, so results must stay byte-identical when the
// replicas are split across worker goroutines.
func TestElasticShardDeterminism(t *testing.T) {
	cfg := elasticConfig(t)
	cfg.FailoverTimeout = sim.Seconds(20)
	cfg.Faults = mustPlan(t, "rcrash:r1@20+15; rpart:r2@40+10")
	cfg.Faults.Seed = 3
	cfg.Shards = 1
	wantRes, wantDig := elasticDigest(t, cfg, 3)
	for _, shards := range []int{2, 4} {
		cfg.Shards = shards
		gotRes, gotDig := elasticDigest(t, cfg, 3)
		if gotRes != wantRes {
			t.Fatalf("elastic result diverges at %d shards:\nsequential: %s\n%d shards:  %s",
				shards, wantRes, shards, gotRes)
		}
		if gotDig != wantDig {
			t.Fatalf("elastic decision log diverges at %d shards", shards)
		}
	}
}

// TestElasticValidation covers the elastic-specific config rejections:
// each names its field.
func TestElasticValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		p     elastic.Policy
	}{
		{"Cooldown", elastic.Policy{Enabled: true, Cooldown: -1}},
		{"MinPrefill", elastic.Policy{Enabled: true, MinPrefill: -1}},
		// Non-finite values: a NaN period would hang the run, and an
		// infinite cooldown or threshold would silently disable every flip.
		{"Every", elastic.Policy{Enabled: true, Every: sim.Duration(nan)}},
		{"Cooldown", elastic.Policy{Enabled: true, Cooldown: sim.Duration(inf)}},
		{"Ratio", elastic.Policy{Enabled: true, Ratio: nan}},
		{"MinPressure", elastic.Policy{Enabled: true, MinPressure: inf}},
	} {
		cfg := testConfig(t, 2)
		cfg.Elastic = tc.p
		if _, err := Run(cfg, trace(5, 5, 1)); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: err = %v, want one naming %s", tc.p, err, tc.field)
		}
	}
}

// TestBrownoutUnchangedByHelperRefactor pins the brown-out hysteresis
// behavior now that it routes through the shared elastic helpers: a
// saturating burst must still enter and exit brown-out, and the entry
// and exit must land in the decision log in that order.
func TestBrownoutUnchangedByHelperRefactor(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.BrownoutDepth = 4
	cfg.Decisions = sched.NewDecisionLog()
	res, err := Run(cfg, trace(300, 150, 9))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res)
	if res.BrownoutSec <= 0 {
		t.Fatalf("saturating burst never browned out: %+v", res)
	}
	var enter, exit bool
	for _, rr := range cfg.Decisions.Routes {
		switch rr.Reason {
		case "brownout-enter":
			if exit {
				continue
			}
			enter = true
		case "brownout-exit":
			if !enter {
				t.Fatal("brownout-exit logged before brownout-enter")
			}
			exit = true
		}
	}
	if !enter || !exit {
		t.Fatalf("brown-out enter/exit not both logged (enter=%v exit=%v)", enter, exit)
	}
}
