package serve

import (
	"testing"

	"windserve/internal/model"
	"windserve/internal/perf"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// trace13B builds a deterministic ShareGPT trace at a per-GPU rate for the
// 4-GPU OPT-13B PD deployment.
func trace13B(perGPURate float64, n int, seed int64) []workload.Request {
	g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: perGPURate * 4}, seed)
	return g.Generate(n)
}

func cfg13B(t *testing.T) Config {
	t.Helper()
	cfg, err := DefaultConfig(model.OPT13B)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

type runFn func(Config, []workload.Request) (*Result, error)

func allSystems() map[string]runFn {
	return map[string]runFn{
		"vLLM":      RunVLLM,
		"DistServe": RunDistServe,
		"WindServe": RunWindServe,
	}
}

func TestAllSystemsDrainModerateLoad(t *testing.T) {
	cfg := cfg13B(t)
	reqs := trace13B(2, 250, 42)
	for name, run := range allSystems() {
		res, err := run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Unfinished != 0 {
			t.Errorf("%s: %d unfinished requests", name, res.Unfinished)
		}
		if res.Summary.Requests != 250 {
			t.Errorf("%s: summarized %d requests", name, res.Summary.Requests)
		}
		// Latencies must be physical: positive TTFT, TPOT under a second
		// at this easy load.
		if res.Summary.TTFTP50 <= 0 {
			t.Errorf("%s: TTFT p50 = %v", name, res.Summary.TTFTP50)
		}
		if res.Summary.TPOTP99 > sim.Seconds(1) {
			t.Errorf("%s: TPOT p99 = %v at light load", name, res.Summary.TPOTP99)
		}
	}
}

func TestNoKVLeaks(t *testing.T) {
	cfg := cfg13B(t)
	reqs := trace13B(5, 400, 7)
	for name, run := range allSystems() {
		res, err := run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Unfinished != 0 {
			t.Fatalf("%s: %d unfinished", name, res.Unfinished)
		}
		// After a full drain every block must be free again — PeakBlocks
		// tells us allocation actually happened.
		if res.DecodeKV.PeakBlocks == 0 {
			t.Errorf("%s: no decode KV activity recorded", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := cfg13B(t)
	reqs := trace13B(4, 200, 11)
	for name, run := range allSystems() {
		a, err := run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if a.Summary != b.Summary {
			t.Errorf("%s: non-deterministic summaries:\n%+v\n%+v", name, a.Summary, b.Summary)
		}
	}
}

func TestTTFTIncludesQueueing(t *testing.T) {
	// Under overload the median TTFT must blow past pure prefill time for
	// the baselines (queuing), evidencing Fig. 1/3 behavior.
	cfg := cfg13B(t)
	res, err := RunDistServe(cfg, trace13B(6, 400, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.TTFTP50 < sim.Milliseconds(300) {
		t.Errorf("DistServe overloaded TTFT p50 = %v, expected heavy queuing", res.Summary.TTFTP50)
	}
	if res.Summary.PrefillQueueMean <= 0 {
		t.Error("prefill queue delay not recorded")
	}
}

// The headline end-to-end claim (Fig. 10/11): at high request rates
// WindServe beats DistServe on median TTFT by a large factor and on SLO
// attainment, and DistServe's decode queue delay exceeds WindServe's.
func TestWindServeBeatsBaselinesAtHighRate(t *testing.T) {
	cfg := cfg13B(t)
	reqs := trace13B(4, 500, 42)
	wind, err := RunWindServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunDistServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	vllm, err := RunVLLM(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if wind.Dispatched == 0 {
		t.Error("WindServe never dispatched under prefill overload")
	}
	ratio := dist.Summary.TTFTP50.Seconds() / wind.Summary.TTFTP50.Seconds()
	if ratio < 1.65 {
		t.Errorf("TTFT p50 improvement = %.2fx, paper reports 1.65-4.28x", ratio)
	}
	if wind.Summary.Attainment <= dist.Summary.Attainment {
		t.Errorf("WindServe SLO %.2f <= DistServe %.2f", wind.Summary.Attainment, dist.Summary.Attainment)
	}
	if wind.Summary.Attainment <= vllm.Summary.Attainment {
		t.Errorf("WindServe SLO %.2f <= vLLM %.2f", wind.Summary.Attainment, vllm.Summary.Attainment)
	}
	if dist.Summary.Attainment <= 0 || vllm.Summary.Attainment <= 0 {
		t.Error("baselines should still serve some requests within SLO")
	}
}

func TestVLLMNeverTransfers(t *testing.T) {
	cfg := cfg13B(t)
	res, err := RunVLLM(cfg, trace13B(2, 150, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.TransferGB != 0 {
		t.Errorf("co-located vLLM moved %v GB across instances", res.TransferGB)
	}
	// Co-located: decode starts immediately after prefill, no transfer
	// delay.
	if res.Summary.DecodeQueueMean > sim.Milliseconds(1) {
		t.Errorf("vLLM decode queue mean = %v, want ~0", res.Summary.DecodeQueueMean)
	}
}

func TestDistServePaysTransferDelay(t *testing.T) {
	cfg := cfg13B(t)
	res, err := RunDistServe(cfg, trace13B(2, 200, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Every decode start waits for its KV to cross PCIe: the mean decode
	// queue delay must be at least a typical transfer (~20+ ms for ~700
	// tokens at 23 GB/s effective).
	if res.Summary.DecodeQueueMean < sim.Milliseconds(10) {
		t.Errorf("DistServe decode queue mean = %v, expected transfer latency", res.Summary.DecodeQueueMean)
	}
	if res.TransferGB <= 0 {
		t.Error("no KV crossed the interconnect")
	}
}

func TestWindServeAsyncTransferHidesLatency(t *testing.T) {
	cfg := cfg13B(t)
	reqs := trace13B(2, 200, 5)
	wind, err := RunWindServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunDistServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if wind.AsyncXfers == 0 {
		t.Fatal("no transfers were overlapped")
	}
	if wind.Summary.DecodeQueueMean >= dist.Summary.DecodeQueueMean {
		t.Errorf("async transfer decode queue %v not below serial %v",
			wind.Summary.DecodeQueueMean, dist.Summary.DecodeQueueMean)
	}
	// Ablation: disabling async transfer restores the serial delay.
	cfg.Wind.DisableAsyncTransfer = true
	noAsync, err := RunWindServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if noAsync.AsyncXfers != 0 {
		t.Error("DisableAsyncTransfer still overlapped transfers")
	}
	if noAsync.Summary.DecodeQueueMean <= wind.Summary.DecodeQueueMean {
		t.Errorf("no-async decode queue %v should exceed async %v",
			noAsync.Summary.DecodeQueueMean, wind.Summary.DecodeQueueMean)
	}
}

func TestWindServeReschedulingUnderMemoryPressure(t *testing.T) {
	// Force decode KV pressure at a high rate; rescheduling and backups
	// must engage (Fig. 13b's mechanism).
	cfg := cfg13B(t)
	res, err := RunWindServe(cfg, trace13B(6, 600, 42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled == 0 {
		t.Error("no migrations under memory pressure")
	}
	if res.Backups == 0 {
		t.Error("no proactive backups under pressure")
	}
	if res.Unfinished != 0 {
		t.Errorf("%d unfinished", res.Unfinished)
	}
}

func TestAblationFlagsChangeBehavior(t *testing.T) {
	cfg := cfg13B(t)
	reqs := trace13B(5, 400, 9)
	full, err := RunWindServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	noSplit, err := RunWindServeNoSplit(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if noSplit.System != "WindServe-no-split" {
		t.Errorf("system name = %s", noSplit.System)
	}
	noRe, err := RunWindServeNoResched(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if noRe.System != "WindServe-no-resche" {
		t.Errorf("system name = %s", noRe.System)
	}
	if noRe.Rescheduled != 0 {
		t.Error("no-resche still migrated")
	}
	// No-dispatch behaves like DistServe on the dispatch axis.
	cfgND := cfg
	cfgND.Wind.DisableDispatch = true
	noDisp, err := RunWindServe(cfgND, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if noDisp.Dispatched != 0 {
		t.Error("no-dispatch still dispatched")
	}
	if full.Dispatched == 0 {
		t.Error("full WindServe should dispatch at this rate")
	}
	// Dispatch is the TTFT lever: removing it must hurt median TTFT.
	if noDisp.Summary.TTFTP50 <= full.Summary.TTFTP50 {
		t.Errorf("no-dispatch TTFT p50 %v should exceed full %v",
			noDisp.Summary.TTFTP50, full.Summary.TTFTP50)
	}
}

func TestSBDAblationHurtsTPOT(t *testing.T) {
	// WindServe-no-split puts dispatched prefills into hybrid batches; at
	// a dispatch-heavy rate its TPOT tail must be worse than full
	// WindServe's (paper Fig. 13a).
	cfg := cfg13B(t)
	reqs := trace13B(5, 500, 21)
	full, err := RunWindServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	noSplit, err := RunWindServeNoSplit(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if noSplit.Summary.TPOTP99 <= full.Summary.TPOTP99 {
		t.Errorf("no-split TPOT p99 %v should exceed full WindServe %v",
			noSplit.Summary.TPOTP99, full.Summary.TPOTP99)
	}
}

func TestUtilizationShapesMatchFig2(t *testing.T) {
	// Fig. 2: prefill instances are compute-heavy, decode instances are
	// bandwidth-heavy; both leave headroom.
	cfg := cfg13B(t)
	res, err := RunDistServe(cfg, trace13B(4, 400, 42))
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefillComputeUtil <= res.PrefillBWUtil {
		t.Errorf("prefill compute %.2f should exceed its BW util %.2f",
			res.PrefillComputeUtil, res.PrefillBWUtil)
	}
	if res.DecodeBWUtil <= res.DecodeComputeUtil {
		t.Errorf("decode BW %.2f should exceed its compute util %.2f",
			res.DecodeBWUtil, res.DecodeComputeUtil)
	}
	if res.DecodeComputeUtil > 0.5 {
		t.Errorf("decode compute util %.2f, paper shows heavy underutilization", res.DecodeComputeUtil)
	}
}

func TestPaperSLOTable4(t *testing.T) {
	for _, c := range []struct {
		m    model.Config
		ttft float64
	}{
		{model.OPT13B, 0.25}, {model.OPT66B, 0.8}, {model.LLaMA213B, 4}, {model.LLaMA270B, 15},
	} {
		slo, err := PaperSLO(c.m)
		if err != nil {
			t.Fatal(err)
		}
		if slo.TTFT.Seconds() != c.ttft {
			t.Errorf("%s TTFT SLO = %v", c.m.Name, slo.TTFT)
		}
	}
	if _, err := PaperSLO(model.OPT30B); err == nil {
		t.Error("unlisted model should have no paper SLO")
	}
}

func TestPaperPlacementsTable3(t *testing.T) {
	p, d := PaperPlacement(model.OPT13B)
	if p.GPUs() != 2 || d.GPUs() != 2 {
		t.Errorf("13B placement = %v,%v", p, d)
	}
	p, d = PaperPlacement(model.LLaMA270B)
	if p != (perf.Placement{TP: 2, PP: 2}) || d != (perf.Placement{TP: 2, PP: 2}) {
		t.Errorf("70B placement = %v,%v", p, d)
	}
}

func TestLLaMA70BLongBenchEndToEnd(t *testing.T) {
	// The summarization scenario: long prompts, short outputs, 8 GPUs.
	cfg, err := DefaultConfig(model.LLaMA270B)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(workload.LongBench(), workload.PoissonArrivals{Rate: 0.25 * 8}, 42)
	reqs := g.Generate(120)
	for name, run := range allSystems() {
		res, err := run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Unfinished != 0 {
			t.Errorf("%s: %d unfinished", name, res.Unfinished)
		}
	}
}

func TestSaturatedSystemHitsHorizonGracefully(t *testing.T) {
	cfg := cfg13B(t)
	cfg.Horizon = sim.Seconds(30) // tight horizon
	res, err := RunDistServe(cfg, trace13B(20, 2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished == 0 {
		t.Error("absurd overload should leave unfinished requests at the horizon")
	}
	// Summary still computed over completed requests only.
	if res.Summary.Requests+res.Unfinished != 2000 {
		t.Errorf("requests %d + unfinished %d != 2000", res.Summary.Requests, res.Unfinished)
	}
}

func TestDecodeQueueDelayMetricConsistency(t *testing.T) {
	cfg := cfg13B(t)
	res, err := RunWindServe(cfg, trace13B(3, 300, 13))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.TTFT() < 0 {
			t.Fatalf("req%d negative TTFT %v", r.ID, r.TTFT())
		}
		if r.TPOT() < 0 {
			t.Fatalf("req%d negative TPOT %v", r.ID, r.TPOT())
		}
		if r.DecodeQueueDelay() < 0 {
			t.Fatalf("req%d negative decode queue delay", r.ID)
		}
		if r.OutputTokens > 1 && r.DecodeStart < r.FirstToken {
			t.Fatalf("req%d decode started before first token", r.ID)
		}
	}
}

func TestThresholdTradeoffFig5Shape(t *testing.T) {
	// Fig. 5: a threshold near the SLO yields better attainment than an
	// extreme threshold at either end (too eager floods decode, too lazy
	// never relieves the prefill queue).
	cfg := cfg13B(t)
	reqs := trace13B(4, 500, 42)
	att := func(frac float64) float64 {
		c := cfg
		c.Wind.ThresholdFrac = frac
		res, err := RunWindServe(c, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.Attainment
	}
	mid := att(0.8)
	hi := att(40) // threshold 10 s: effectively never dispatch
	if mid <= hi {
		t.Errorf("attainment at thrd=0.8*SLO (%.2f) should beat never-dispatch (%.2f)", mid, hi)
	}
}

func TestPendingTransfersQueueAndDrain(t *testing.T) {
	// A starved decode instance ([TP-2, TP-1]) cannot hold every prefilled
	// request's KV at once: transfers must queue and drain as decodes
	// complete — the retry path behind DistServe's decode queuing delay.
	cfg := cfg13B(t)
	cfg.DecodePlace = perf.Placement{TP: 1, PP: 1}
	g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: 3 * 3}, 42)
	reqs := g.Generate(400)
	res, err := RunDistServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished", res.Unfinished)
	}
	// Queued transfers show up as decode-queue delay well beyond a raw
	// PCIe copy, plus failed decode allocations.
	if res.Summary.DecodeQueueP99 < sim.Milliseconds(200) {
		t.Errorf("decode queue p99 = %v, expected heavy transfer queuing", res.Summary.DecodeQueueP99)
	}
	if res.DecodeKV.FailedAllocs == 0 {
		t.Error("expected failed decode allocations while transfers waited")
	}
}

func TestMigrationAbortPathsSurviveShortOutputs(t *testing.T) {
	// LongBench-shaped traffic on OPT-13B with a starved decode instance:
	// long contexts trigger migrations, but tiny outputs finish requests
	// mid-copy, exercising the migration abort/cleanup paths. The run must
	// stay conservation-clean.
	cfg := cfg13B(t)
	cfg.DecodePlace = perf.Placement{TP: 1, PP: 1}
	ds := workload.LongBench()
	ds.MaxContext = cfg.Model.MaxContext
	g := workload.NewGenerator(ds, workload.PoissonArrivals{Rate: 2 * 3}, 42)
	reqs := g.Generate(500)
	res, err := RunWindServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished", res.Unfinished)
	}
	if len(res.Records) != 500 {
		t.Fatalf("records = %d", len(res.Records))
	}
}

func TestDeriveTPOTSLOTracksTable4(t *testing.T) {
	// §5.2's rule (TPOT SLO = 4× a decode iteration at batch 16 and the
	// dataset's average context) should land within the order of magnitude
	// of Table 4 on our calibrated substrate.
	cases := []struct {
		m      model.Config
		avgCtx int // dataset average prompt+output
	}{
		{model.OPT13B, 965},     // ShareGPT: 768 + 196
		{model.OPT66B, 965},     //
		{model.LLaMA213B, 2988}, // LongBench: 2890 + 97
		{model.LLaMA270B, 2988}, //
	}
	for _, c := range cases {
		cfg, err := DefaultConfig(c.m)
		if err != nil {
			t.Fatal(err)
		}
		pre, _ := PaperPlacement(c.m)
		cm, err := perf.New(c.m, cfg.Topo.Device(0).Spec, pre, cfg.Topo.Link(0), cfg.Params)
		if err != nil {
			t.Fatal(err)
		}
		derived := DeriveTPOTSLO(cm, c.avgCtx)
		ratio := derived.Seconds() / cfg.SLO.TPOT.Seconds()
		// Our simulated backend is faster than the authors' for some
		// models, so require order-of-magnitude agreement.
		if ratio < 0.25 || ratio > 2.5 {
			t.Errorf("%s: derived TPOT SLO %v vs Table 4 %v (ratio %.2f)", c.m.Name, derived, cfg.SLO.TPOT, ratio)
		}
	}
}

func TestConfigDefaultsFilled(t *testing.T) {
	var cfg Config
	cfg.Model = model.OPT13B
	cfg.fillDefaults()
	if cfg.BlockSize != 16 || cfg.ChunkSize != 512 || cfg.MaxDecodeBatch != 256 {
		t.Errorf("defaults not filled: %+v", cfg)
	}
	if cfg.Wind.Resched.LowWatermark == 0 {
		t.Error("wind policy defaults not filled")
	}
	if _, err := DefaultConfig(model.OPT30B); err == nil {
		t.Error("DefaultConfig should fail without a paper SLO")
	}
}

func TestResultString(t *testing.T) {
	cfg := cfg13B(t)
	res, err := RunVLLM(cfg, trace13B(1, 50, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if len(s) == 0 || res.Summary.Requests != 50 {
		t.Errorf("result string %q", s)
	}
}
