package fleet

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"windserve/internal/elastic"
	"windserve/internal/fault"
	"windserve/internal/model"
	"windserve/internal/sched"
	"windserve/internal/serve"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

func testConfig(t *testing.T, replicas int) Config {
	t.Helper()
	rcfg, err := serve.DefaultConfig(model.OPT13B)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Replica:         rcfg,
		NumReplicas:     replicas,
		FailoverTimeout: sim.Seconds(20),
		Horizon:         sim.Seconds(600),
	}
}

func trace(n int, rate float64, seed int64) []workload.Request {
	g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: rate}, seed)
	return g.Generate(n)
}

// checkPartition asserts the lifecycle partition: every request ends in
// exactly one of completed/aborted/rejected/unfinished.
func checkPartition(t *testing.T, res *Result) {
	t.Helper()
	if got := res.Completed + res.Aborted + res.Rejected + res.Unfinished; got != res.Requests {
		t.Fatalf("lifecycle partition broken: %d completed + %d aborted + %d rejected + %d unfinished != %d requests",
			res.Completed, res.Aborted, res.Rejected, res.Unfinished, res.Requests)
	}
}

// badArrivalTraces are request streams the front door must refuse: each
// one's last request arrives out of order, at a non-finite time, with a
// negative token count, or under an ID still in flight.
func badArrivalTraces() map[string][]workload.Request {
	req := func(id uint64, at sim.Time) workload.Request {
		return workload.Request{ID: id, Arrival: at, PromptTokens: 64, OutputTokens: 8}
	}
	return map[string][]workload.Request{
		"backwards":          {req(1, 5), req(2, 1)},
		"midstream":          {req(1, 1), req(2, 2), req(3, 3), req(4, 2.5)},
		"negative":           {req(7, -1)},
		"duplicate-inflight": {req(7, 0), req(7, 0)},
		"negative-tokens":    {req(1, 0), {ID: 2, Arrival: 0, PromptTokens: -100, OutputTokens: 10}},
		"nan-arrival":        {req(1, 0), req(2, sim.Time(math.NaN()))},
		"inf-arrival":        {req(1, 0), req(2, sim.Time(math.Inf(1)))},
	}
}

// TestUnsortedArrivalsError: a source whose arrivals go backwards or are
// not finite, that reuses the ID of a request still in flight, or that
// carries negative token counts must make every Run entry point return an
// error naming the offending request, not panic inside the event kernel
// or the recorder, hang, or report NaN times.
func TestUnsortedArrivalsError(t *testing.T) {
	rcfg, err := serve.DefaultConfig(model.OPT13B)
	if err != nil {
		t.Fatal(err)
	}
	fleetRun := func(shards int) func([]workload.Request) error {
		return func(reqs []workload.Request) error {
			cfg := testConfig(t, 2)
			cfg.Shards = shards
			_, err := Run(cfg, reqs)
			return err
		}
	}
	runs := map[string]func([]workload.Request) error{
		"DistServe": func(reqs []workload.Request) error { _, err := serve.RunDistServe(rcfg, reqs); return err },
		"WindServe": func(reqs []workload.Request) error { _, err := serve.RunWindServe(rcfg, reqs); return err },
		"vLLM":      func(reqs []workload.Request) error { _, err := serve.RunVLLM(rcfg, reqs); return err },
		"fleet":     fleetRun(1),
		"fleet-2sh": fleetRun(2),
	}
	for sys, run := range runs {
		for name, reqs := range badArrivalTraces() {
			err := run(reqs)
			id := fmt.Sprintf("request %d ", reqs[len(reqs)-1].ID)
			if err == nil || !strings.Contains(err.Error(), id) {
				t.Errorf("%s/%s: err = %v, want one naming %q", sys, name, err, id)
			}
		}
	}
}

func TestFleetCleanRun(t *testing.T) {
	cfg := testConfig(t, 4)
	res, err := Run(cfg, trace(200, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res)
	if res.Unfinished != 0 || res.Aborted != 0 || res.Rejected != 0 {
		t.Fatalf("clean run lost requests: %v", res)
	}
	if res.Completed != 200 {
		t.Fatalf("completed %d of 200", res.Completed)
	}
	if res.LiveKVBlocks != 0 {
		t.Fatalf("KV leak: %d blocks live after drain", res.LiveKVBlocks)
	}
	if res.Recovered != 0 || res.FailedOver != 0 {
		t.Fatalf("clean run recorded failovers: %v", res)
	}
}

// TestFleetCrashFailover is the exactly-once invariant under chaos: a
// replica crash orphans its requests, the router fails them over, and
// every one still ends in exactly one lifecycle state. A double-complete
// or complete-after-abort would panic inside the recorder.
func TestFleetCrashFailover(t *testing.T) {
	for _, pol := range []string{"round-robin", "least-loaded", "weighted"} {
		cfg := testConfig(t, 3)
		cfg.Policy = pol
		cfg.Faults = mustPlan(t, "rcrash:r0@10+30")
		cfg.Decisions = sched.NewDecisionLog()
		res, err := Run(cfg, trace(300, 10, 2))
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, res)
		if res.Unfinished != 0 {
			t.Fatalf("%s: %d unfinished after crash+restore", pol, res.Unfinished)
		}
		if res.Recovered == 0 || res.FailedOver == 0 {
			t.Fatalf("%s: crash at t=10 orphaned nothing (recovered %d, failovers %d)",
				pol, res.Recovered, res.FailedOver)
		}
		if res.Recovered > res.Completed {
			t.Fatalf("%s: recovered %d > completed %d", pol, res.Recovered, res.Completed)
		}
		if res.LiveKVBlocks != 0 {
			t.Fatalf("%s: KV leak after crash recovery: %d blocks", pol, res.LiveKVBlocks)
		}
		if res.WastedTokens == 0 {
			t.Fatalf("%s: crash evicted in-flight requests but no wasted work accounted", pol)
		}
		reasons := map[string]int{}
		for _, rr := range cfg.Decisions.Routes {
			reasons[rr.Reason]++
		}
		if reasons["failover-crash"] == 0 {
			t.Fatalf("%s: no failover-crash decisions logged: %v", pol, reasons)
		}
		if reasons["replica-crash"] != 1 || reasons["replica-restore"] != 1 {
			t.Fatalf("%s: crash/restore decisions missing: %v", pol, reasons)
		}
	}
}

// TestFleetPartitionAndSlow exercises the two non-crash health faults:
// a partitioned replica's first-token-less requests move immediately, and
// a slowed replica triggers timeout failovers.
func TestFleetPartitionAndSlow(t *testing.T) {
	cfg := testConfig(t, 3)
	cfg.Policy = "weighted"
	cfg.FailoverTimeout = sim.Seconds(5)
	cfg.Faults = mustPlan(t, "rpart:r1@8+20; rslow:r2@30x50+30")
	cfg.Decisions = sched.NewDecisionLog()
	res, err := Run(cfg, trace(300, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res)
	reasons := map[string]int{}
	for _, rr := range cfg.Decisions.Routes {
		reasons[rr.Reason]++
	}
	if reasons["partition-start"] == 0 || reasons["partition-heal"] == 0 {
		t.Fatalf("partition events not logged: %v", reasons)
	}
	if reasons["failover-partition"]+reasons["failover-timeout"] == 0 {
		t.Fatalf("no failovers under partition+slow chaos: %v", reasons)
	}
}

// TestFleetShedding drives the fleet past its admission limit and checks
// the router rejects (never queues unboundedly) and aborts on deadline.
func TestFleetShedding(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.MaxQueueDepth = 8
	cfg.TTFTDeadline = sim.Seconds(5)
	res, err := Run(cfg, trace(400, 200, 4))
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res)
	if res.Rejected == 0 {
		t.Fatal("overload run rejected nothing")
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished despite shedding", res.Unfinished)
	}
}

// TestRecoveredIgnoresRetention: Recovered counts the failed-over
// requests that completed, so it reads the same whether the recorder
// keeps every record or a single one, even when recovered requests later
// abort on the deadline or a cancellation.
func TestRecoveredIgnoresRetention(t *testing.T) {
	run := func(stream serve.StreamPolicy) *Result {
		cfg := testConfig(t, 4)
		cfg.TTFTDeadline = sim.Seconds(15)
		cfg.Replica.Stream = stream
		cfg.Faults = mustPlan(t, "rcrash:r0@5+40; rcrash:r2@8+30; cancel@20x0.6")
		cfg.Faults.Seed = 7
		res, err := Run(cfg, trace(600, 14, 5))
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, res)
		return res
	}
	exact := run(serve.StreamPolicy{})
	capped := run(serve.StreamPolicy{Enabled: true, MaxRecords: 1})
	if exact.Recovered == 0 {
		t.Fatal("the crash plan recovered no request")
	}
	if capped.Recovered != exact.Recovered {
		t.Errorf("Recovered = %d keeping one record, %d keeping all", capped.Recovered, exact.Recovered)
	}
}

// TestFleetDeterminism runs the same seeded chaos twice and requires
// byte-identical results and decision logs — the property the CI chaos
// gate enforces end to end.
func TestFleetDeterminism(t *testing.T) {
	run := func() (string, []byte) {
		cfg := testConfig(t, 4)
		cfg.Policy = "least-loaded"
		cfg.BrownoutDepth = 16
		cfg.Faults = mustPlan(t, "rcrash:r1@10+20; rpart:r3@25+10; rslow:r0@40x8+20; cancel@30x0.1")
		cfg.Faults.Seed = 7
		cfg.Decisions = sched.NewDecisionLog()
		res, err := Run(cfg, trace(400, 12, 5))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Decisions.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", res), buf.Bytes()
	}
	r1, d1 := run()
	r2, d2 := run()
	if r1 != r2 {
		t.Fatalf("results differ across identical runs:\n%s\n%s", r1, r2)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("decision logs differ across identical runs")
	}
}

// TestFleetValidation covers the router-level config rejections.
func TestFleetValidation(t *testing.T) {
	base := testConfig(t, 2)
	for name, mutate := range map[string]func(*Config){
		"no replicas":     func(c *Config) { c.NumReplicas = 0 },
		"unknown policy":  func(c *Config) { c.Policy = "random" },
		"instance fault":  func(c *Config) { c.Faults = mustPlan(t, "crash:d0@5+5") },
		"replica too big": func(c *Config) { c.Faults = mustPlan(t, "rcrash:r2@5+5") },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := Run(cfg, trace(5, 5, 1)); err == nil {
			t.Errorf("%s: Run accepted invalid config", name)
		}
	}
}

// TestConfigValidationRejectsBadValues: every negative or non-finite
// knob is rejected with an error naming its field, at one and two shards
// (a NaN Horizon would otherwise reach the shard barrier's lookahead).
func TestConfigValidationRejectsBadValues(t *testing.T) {
	nan, inf := sim.Duration(math.NaN()), sim.Duration(math.Inf(1))
	cases := []struct {
		field string
		mut   func(*Config)
	}{
		{"Shards", func(c *Config) { c.Shards = -1 }},
		{"MaxQueueDepth", func(c *Config) { c.MaxQueueDepth = -1 }},
		{"BrownoutDepth", func(c *Config) { c.BrownoutDepth = -4 }},
		{"FailoverTimeout", func(c *Config) { c.FailoverTimeout = -sim.Seconds(1) }},
		{"FailoverTimeout", func(c *Config) { c.FailoverTimeout = nan }},
		{"FailoverTimeout", func(c *Config) { c.FailoverTimeout = sim.Microseconds(500) }},
		{"Every", func(c *Config) { c.Elastic = elastic.Policy{Enabled: true, Every: sim.Microseconds(1)} }},
		{"TTFTDeadline", func(c *Config) { c.TTFTDeadline = -sim.Seconds(1) }},
		{"TTFTDeadline", func(c *Config) { c.TTFTDeadline = inf }},
		{"Horizon", func(c *Config) { c.Horizon = -sim.Seconds(1) }},
		{"Horizon", func(c *Config) { c.Horizon = nan }},
	}
	for _, shards := range []int{1, 2} {
		base := testConfig(t, 2)
		base.Shards = shards
		for i, tc := range cases {
			cfg := base
			tc.mut(&cfg)
			_, err := Run(cfg, trace(5, 5, 1))
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("shards %d: case %d (%s): err = %v, want one naming the field", shards, i, tc.field, err)
			}
		}
	}
}

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
