package fleet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"windserve/internal/obs"
	"windserve/internal/sched"
	"windserve/internal/sim"
	wstrace "windserve/internal/trace"
)

// digest runs one fleet config and returns the printed Result plus a
// SHA-256 over the decision log's JSONL — the same two artifacts the CI
// determinism gate compares.
func digest(t *testing.T, cfg Config, seed int64) (string, [32]byte) {
	t.Helper()
	cfg.Decisions = sched.NewDecisionLog()
	res, err := Run(cfg, trace(150, 10, seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Decisions.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", res), sha256.Sum256(buf.Bytes())
}

// TestShardedDeterminism is the tentpole property: partitioning the fleet
// across shard simulators must not change a single byte of output. Every seed runs sequentially (Shards=1) and then at
// 2/4/8 shards under the same rcrash+rpart+cancel chaos; the printed
// Result and the decision-log digest must match exactly across every
// shard count.
func TestShardedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := int64(1); seed <= 10; seed++ {
		cfg := testConfig(t, 8)
		// Alternate policies so the delayed-load view, penalty decay, and
		// affinity spill paths all cross the determinism gate.
		cfg.Policy = []string{"least-loaded", "weighted", "prefix-affinity"}[seed%3]
		cfg.FailoverTimeout = sim.Seconds(10)
		cfg.BrownoutDepth = 16
		cfg.Faults = mustPlan(t, "rcrash:r1@10+20; rpart:r3@25+10; cancel@30x0.1")
		cfg.Faults.Seed = seed
		cfg.Shards = 1
		wantRes, wantDig := digest(t, cfg, seed)
		for _, shards := range []int{2, 4, 8} {
			cfg.Shards = shards
			gotRes, gotDig := digest(t, cfg, seed)
			if gotRes != wantRes {
				t.Fatalf("seed %d: result diverges at %d shards:\nsequential: %s\ngot:        %s",
					seed, shards, wantRes, gotRes)
			}
			if gotDig != wantDig {
				t.Fatalf("seed %d: decision log diverges at %d shards", seed, shards)
			}
		}
	}
}

// TestShardedDeterminismSmoke is the fast always-on slice of the sweep:
// one seed, chaos on, 1 vs 4 shards. CI's race job runs the full sweep.
func TestShardedDeterminismSmoke(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.Policy = "least-loaded"
	cfg.FailoverTimeout = sim.Seconds(10)
	cfg.Faults = mustPlan(t, "rcrash:r1@10+20; rpart:r3@25+10")
	cfg.Faults.Seed = 3
	cfg.Shards = 1
	wantRes, wantDig := digest(t, cfg, 3)
	cfg.Shards = 4
	gotRes, gotDig := digest(t, cfg, 3)
	if gotRes != wantRes {
		t.Fatalf("result diverges at 4 shards:\nsequential: %s\n4 shards:   %s", wantRes, gotRes)
	}
	if gotDig != wantDig {
		t.Fatal("decision log diverges at 4 shards")
	}
}

// TestLookaheadClampedToHorizon: a drain cap shorter than the network
// delay, which bounds the shard group's lookahead, must not fail the run,
// and the run must stay byte-identical across shard counts.
func TestLookaheadClampedToHorizon(t *testing.T) {
	cfg := testConfig(t, 4)
	cfg.Horizon = sim.Milliseconds(1)
	var want string
	for _, shards := range []int{1, 2} {
		cfg.Shards = shards
		res, err := Run(cfg, trace(40, 10, 5))
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		got := fmt.Sprintf("%+v", res)
		if shards == 1 {
			want = got
		} else if got != want {
			t.Fatalf("result diverges at %d shards:\nsequential: %s\ngot:        %s", shards, want, got)
		}
	}
}

// TestTracedFleetAtAnyShardCount: a traced 2-shard chaos fleet produces
// the same Result and decision log as the untraced 1-shard run, gives
// every replica its own lanes and exports a Perfetto trace.
func TestTracedFleetAtAnyShardCount(t *testing.T) {
	const replicas = 4
	cfg := testConfig(t, replicas)
	cfg.Policy = "least-loaded"
	cfg.FailoverTimeout = sim.Seconds(10)
	cfg.Faults = mustPlan(t, "rcrash:r1@10+20; rpart:r3@25+10; cancel@30x0.1")
	cfg.Faults.Seed = 2
	cfg.Shards = 1
	wantRes, wantDig := digest(t, cfg, 2)

	tr := wstrace.New()
	cfg.Shards = 2
	cfg.Replica.Tracer = tr
	gotRes, gotDig := digest(t, cfg, 2)
	if gotRes != wantRes {
		t.Fatalf("traced 2-shard result diverges:\nuntraced 1 shard: %s\ntraced 2 shards:  %s", wantRes, gotRes)
	}
	if gotDig != wantDig {
		t.Fatal("traced 2-shard decision log diverges from the untraced 1-shard run")
	}
	lanes := strings.Join(tr.Lanes(), "\n")
	for i := 0; i < replicas; i++ {
		if p := fmt.Sprintf("r%d/", i); !strings.Contains(lanes, p) {
			t.Errorf("no lane for replica %s in %q", p, tr.Lanes())
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty Chrome trace")
	}
}
