package sched

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"windserve/internal/engine"
	"windserve/internal/gpu"
	"windserve/internal/model"
	"windserve/internal/perf"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

func testCM(t *testing.T) *perf.CostModel {
	t.Helper()
	return perf.MustNew(model.OPT13B, gpu.A800, perf.Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, perf.DefaultParams())
}

func testProfiler(t *testing.T) *Profiler {
	t.Helper()
	p, err := Profile(testCM(t))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfilerFitQuality(t *testing.T) {
	p := testProfiler(t)
	if p.PrefillR2 < 0.98 {
		t.Errorf("prefill fit R2 = %v, want > 0.98", p.PrefillR2)
	}
	if p.DecodeR2 < 0.95 {
		t.Errorf("decode fit R2 = %v, want > 0.95", p.DecodeR2)
	}
}

func TestProfilerPredictionsTrackCostModel(t *testing.T) {
	cm := testCM(t)
	p := testProfiler(t)
	// On unsampled shapes the prediction should land within ~15% — real
	// prediction error, but useful for scheduling.
	for _, n := range []int{100, 500, 900, 1700} {
		got := p.PredictPrefill(n).Seconds()
		want := cm.PrefillTime(n).Seconds()
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("PredictPrefill(%d) = %.4f, actual %.4f", n, got, want)
		}
	}
	for _, c := range []struct{ b, ctx int }{{8, 700}, {16, 900}, {24, 1200}} {
		got := p.PredictDecode(c.b * c.ctx).Seconds()
		want := cm.DecodeTime(c.b, c.b*c.ctx).Seconds()
		if math.Abs(got-want) > 0.25*want {
			t.Errorf("PredictDecode(b=%d,ctx=%d) = %.4f, actual %.4f", c.b, c.ctx, got, want)
		}
	}
}

func TestProfilerCoefficientSigns(t *testing.T) {
	p := testProfiler(t)
	_, ap, bp := p.PrefillCoefficients()
	if ap <= 0 {
		t.Errorf("a_p = %v, want positive linear term", ap)
	}
	if bp <= 0 {
		t.Errorf("b_p = %v, want positive quadratic term", bp)
	}
	_, ad := p.DecodeCoefficients()
	if ad <= 0 {
		t.Errorf("a_d = %v, want positive", ad)
	}
}

func TestProfilerEdgeInputs(t *testing.T) {
	p := testProfiler(t)
	if p.PredictPrefill(0) != 0 || p.PredictPrefill(-5) != 0 {
		t.Error("non-positive token counts should predict 0")
	}
	if p.PredictDecode(0) < 0 {
		t.Error("decode prediction must be non-negative")
	}
}

// Property: predictions are monotone.
func TestPropertyPredictionMonotone(t *testing.T) {
	p := testProfiler(t)
	f := func(a, b uint16) bool {
		x, y := int(a%4096), int(b%4096)
		if x > y {
			x, y = y, x
		}
		return p.PredictPrefill(x) <= p.PredictPrefill(y) &&
			p.PredictDecode(x) <= p.PredictDecode(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAssistBudget(t *testing.T) {
	cm := testCM(t)
	ref := perf.DecodeOnly(16, 16*900)
	slo := sim.Milliseconds(100)
	budget := AssistBudget(cm, ref, slo)
	if budget <= 0 {
		t.Fatalf("budget = %d, want positive", budget)
	}
	// At the budget the SLO holds; just above it (if not maxed) it fails.
	if td := cm.SBDDecodeTime(ref, perf.PrefillOnly(budget)); td > slo {
		t.Errorf("decode at budget %d takes %v > SLO %v", budget, td, slo)
	}
	if budget < cm.Cfg.MaxContext {
		if td := cm.SBDDecodeTime(ref, perf.PrefillOnly(budget+64)); td <= slo {
			t.Errorf("budget %d not maximal: %d tokens still meets SLO (%v)", budget, budget+64, td)
		}
	}
	// Tighter SLO → smaller budget.
	tight := AssistBudget(cm, ref, sim.Milliseconds(18))
	if tight > budget {
		t.Errorf("tighter SLO grew the budget: %d > %d", tight, budget)
	}
	// No decode load → full budget.
	if b := AssistBudget(cm, perf.Batch{}, slo); b != cm.Cfg.MaxContext {
		t.Errorf("empty reference budget = %d, want max context", b)
	}
	// SLO already blown → full budget (KV gate still applies at runtime).
	if b := AssistBudget(cm, perf.DecodeOnly(200, 200*2000), sim.Milliseconds(1)); b != cm.Cfg.MaxContext {
		t.Errorf("blown-SLO budget = %d", b)
	}
}

func mkCoord(t *testing.T) *Coordinator {
	return &Coordinator{
		Prof:           testProfiler(t),
		Thrd:           sim.Milliseconds(200), // slightly below the 250ms SLO
		BudgetTokens:   2048,
		KVSafetyTokens: 4096,
	}
}

func TestDispatchUnderloadedStaysOnPrefill(t *testing.T) {
	c := mkCoord(t)
	d := c.DecideDispatch(DispatchInput{
		NewPromptTokens:     700,
		QueuedPrefillTokens: 0,
		DecodeFreeKVTokens:  100_000,
	})
	if d.ToDecode {
		t.Errorf("empty queue should not dispatch (pred=%v)", d.PredictedTTFT)
	}
}

func TestDispatchOverloadedGoesToDecode(t *testing.T) {
	c := mkCoord(t)
	d := c.DecideDispatch(DispatchInput{
		NewPromptTokens:      700,
		QueuedPrefillTokens:  6000, // deep queue → predicted TTFT above thrd
		PrefillBusyRemaining: sim.Milliseconds(100),
		DecodeFreeKVTokens:   100_000,
	})
	if !d.ToDecode {
		t.Errorf("overloaded prefill should dispatch (pred=%v, slots=%d)", d.PredictedTTFT, d.Slots)
	}
	if d.PredictedTTFT <= c.Thrd {
		t.Errorf("predicted TTFT %v should exceed threshold", d.PredictedTTFT)
	}
}

func TestDispatchBlockedByBudget(t *testing.T) {
	c := mkCoord(t)
	d := c.DecideDispatch(DispatchInput{
		NewPromptTokens:      700,
		QueuedPrefillTokens:  6000,
		DecodeFreeKVTokens:   100_000,
		AssistInFlightTokens: 1500, // 2048-1500 = 548 < 700
	})
	if d.ToDecode {
		t.Error("dispatch should be blocked by the assist budget")
	}
	if d.Slots != 548 {
		t.Errorf("slots = %d, want 548", d.Slots)
	}
}

func TestDispatchBlockedByKV(t *testing.T) {
	c := mkCoord(t)
	d := c.DecideDispatch(DispatchInput{
		NewPromptTokens:     700,
		QueuedPrefillTokens: 6000,
		DecodeFreeKVTokens:  4500, // 4500-4096 = 404 < 700
	})
	if d.ToDecode {
		t.Error("dispatch should be blocked by decode KV pressure")
	}
	if d.Slots != 404 {
		t.Errorf("slots = %d, want 404", d.Slots)
	}
	// Paper: "if the KV blocks in the decoding instance are inadequate,
	// the available slot is set to 0".
	d = c.DecideDispatch(DispatchInput{
		NewPromptTokens:     700,
		QueuedPrefillTokens: 6000,
		DecodeFreeKVTokens:  1000,
	})
	if d.Slots != 0 || d.ToDecode {
		t.Errorf("slots = %d with exhausted KV, want 0", d.Slots)
	}
}

func TestReschedulePolicyTrigger(t *testing.T) {
	p := DefaultReschedulePolicy()
	if !p.ShouldTrigger(0.05) {
		t.Error("5% free should trigger")
	}
	if p.ShouldTrigger(0.5) {
		t.Error("50% free should not trigger")
	}
}

func mkReq(id uint64, prompt, generated int) *engine.Req {
	r := engine.NewReq(workload.Request{ID: id, PromptTokens: prompt, OutputTokens: 1000})
	r.PrefillDone = prompt
	r.SetGenerated(generated)
	r.Phase = engine.PhaseDecoding
	return r
}

func TestPickVictimsPrefersLongContexts(t *testing.T) {
	p := DefaultReschedulePolicy()
	running := []*engine.Req{
		mkReq(1, 100, 10),
		mkReq(2, 1800, 50), // longest
		mkReq(3, 900, 20),
		mkReq(4, 1200, 5),
	}
	victims := p.PickVictims(running, 1800, 4)
	if len(victims) != 1 || victims[0].W.ID != 2 {
		t.Fatalf("victims = %v, want just req2", victims)
	}
	// Needing more frees the next-longest too.
	victims = p.PickVictims(running, 2500, 4)
	if len(victims) != 2 || victims[0].W.ID != 2 || victims[1].W.ID != 4 {
		t.Fatalf("victims = %v, want req2 then req4", victims)
	}
}

func TestPickVictimsSkipsMigratingAndCaps(t *testing.T) {
	p := DefaultReschedulePolicy()
	a, b, c := mkReq(1, 2000, 1), mkReq(2, 1500, 1), mkReq(3, 1400, 1)
	a.Migrating = true
	victims := p.PickVictims([]*engine.Req{a, b, c}, 10_000, 1)
	if len(victims) != 1 || victims[0] != b {
		t.Fatalf("victims = %v, want just b", victims)
	}
	// Swapped-out requests are not eligible.
	b.Phase = engine.PhaseSwapped
	victims = p.PickVictims([]*engine.Req{a, b, c}, 10_000, 5)
	if len(victims) != 1 || victims[0] != c {
		t.Fatalf("victims = %v, want just c", victims)
	}
}

func TestPickVictimsShortestFirst(t *testing.T) {
	p := DefaultReschedulePolicy()
	p.PreferShortVictims = true
	running := []*engine.Req{
		mkReq(1, 1800, 50),
		mkReq(2, 100, 10), // shortest
		mkReq(3, 900, 20),
	}
	victims := p.PickVictims(running, 1, 4)
	if len(victims) != 1 || victims[0].W.ID != 2 {
		t.Fatalf("victims = %v, want the shortest (req2)", victims)
	}
}

// pickVictimsSorted is the stable-sort selection PickVictims replaced,
// kept as the reference TestPickVictimsMatchesStableSort checks against.
func pickVictimsSorted(p ReschedulePolicy, running []*engine.Req, needTokens, maxVictims int) []*engine.Req {
	var cands []*engine.Req
	for _, r := range running {
		if !r.Migrating && r.Phase == engine.PhaseDecoding {
			cands = append(cands, r)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if p.PreferShortVictims {
			return cands[i].Ctx() < cands[j].Ctx()
		}
		return cands[i].Ctx() > cands[j].Ctx()
	})
	var out []*engine.Req
	freed := 0
	for _, r := range cands {
		if freed >= needTokens || len(out) >= maxVictims {
			break
		}
		out = append(out, r)
		freed += r.Ctx()
	}
	return out
}

// TestPickVictimsMatchesStableSort checks the one-pass selection against
// the stable sort over random batches full of equal contexts, migrating
// and swapped requests, in both victim orders.
func TestPickVictimsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 5000; iter++ {
		p := DefaultReschedulePolicy()
		p.PreferShortVictims = iter%2 == 1
		running := make([]*engine.Req, rng.Intn(12))
		for i := range running {
			r := mkReq(uint64(i+1), 100*(1+rng.Intn(4)), rng.Intn(3)) // few distinct contexts
			r.Migrating = rng.Intn(5) == 0
			if rng.Intn(6) == 0 {
				r.Phase = engine.PhaseSwapped
			}
			running[i] = r
		}
		need, maxVictims := rng.Intn(1000)-50, rng.Intn(5)
		got, want := p.PickVictims(running, need, maxVictims), pickVictimsSorted(p, running, need, maxVictims)
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d (short first %v, need %d, max %d): got %v, want %v",
				iter, p.PreferShortVictims, need, maxVictims, got, want)
		}
	}
}

func TestBackupPolicy(t *testing.T) {
	p := DefaultBackupPolicy()
	if !p.ShouldBackup(0.2, 0.8) {
		t.Error("pressured decode + free prefill should back up")
	}
	if p.ShouldBackup(0.6, 0.8) {
		t.Error("relaxed decode should not back up")
	}
	if p.ShouldBackup(0.2, 0.3) {
		t.Error("busy prefill should not back up")
	}
	long := mkReq(1, 1500, 10)
	short := mkReq(2, 100, 10)
	backed := mkReq(3, 1900, 10)
	backed.BackupTokens = 1900
	got := p.PickBackupCandidate([]*engine.Req{short, long, backed}, nil)
	if got != long {
		t.Fatalf("candidate = %v, want the long unbacked request", got)
	}
	if p.PickBackupCandidate([]*engine.Req{short}, nil) != nil {
		t.Error("short requests should not be backed up")
	}
	// A copy in flight rules the longest out; the next longest wins.
	mid := mkReq(4, 1000, 10)
	if got := p.PickBackupCandidate([]*engine.Req{mid, long}, map[uint64]bool{1: true}); got != mid {
		t.Errorf("candidate = %v, want the next longest with no copy in flight", got)
	}
}
