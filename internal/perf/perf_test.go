package perf

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"windserve/internal/gpu"
	"windserve/internal/model"
	"windserve/internal/sim"
)

func opt13bTP2() *CostModel {
	return MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, DefaultParams())
}

func llama70b() *CostModel {
	return MustNew(model.LLaMA270B, gpu.A800, Placement{TP: 2, PP: 2}, gpu.NVLinkBridge, DefaultParams())
}

func TestPlacementValidate(t *testing.T) {
	if err := (Placement{TP: 2, PP: 1}).Validate(model.OPT13B); err != nil {
		t.Errorf("TP-2 on OPT-13B: %v", err)
	}
	if err := (Placement{TP: 0, PP: 1}).Validate(model.OPT13B); err == nil {
		t.Error("TP-0 should fail")
	}
	if err := (Placement{TP: 3, PP: 1}).Validate(model.OPT13B); err == nil {
		t.Error("TP-3 should fail (40 heads)")
	}
	if err := (Placement{TP: 2, PP: 3}).Validate(model.OPT13B); err == nil {
		t.Error("PP-3 should fail (40 layers)")
	}
	if (Placement{TP: 2, PP: 2}).GPUs() != 4 {
		t.Error("GPUs")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(model.OPT13B, gpu.A800, Placement{TP: 3, PP: 1}, gpu.NVLinkBridge, DefaultParams()); err == nil {
		t.Error("invalid placement accepted")
	}
	badCfg := model.OPT13B
	badCfg.Layers = 0
	if _, err := New(badCfg, gpu.A800, Placement{TP: 1, PP: 1}, gpu.NVLinkBridge, DefaultParams()); err == nil {
		t.Error("invalid model accepted")
	}
}

// TestNewRejectsBadParams: every calibration field is range-checked, NaN
// and ±Inf included, and the error names the field.
func TestNewRejectsBadParams(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		mut   func(*Params)
	}{
		{"ComputeEff", func(p *Params) { p.ComputeEff = 0 }},
		{"ComputeEff", func(p *Params) { p.ComputeEff = nan }},
		{"ComputeEff", func(p *Params) { p.ComputeEff = inf }},
		{"BWEff", func(p *Params) { p.BWEff = -0.5 }},
		{"BWEff", func(p *Params) { p.BWEff = nan }},
		{"BWEff", func(p *Params) { p.BWEff = inf }},
		{"KernelOverhead", func(p *Params) { p.KernelOverhead = sim.Duration(nan) }},
		{"KernelOverhead", func(p *Params) { p.KernelOverhead = -sim.Microseconds(1) }},
		{"TPCommLatency", func(p *Params) { p.TPCommLatency = sim.Duration(inf) }},
		{"CPUOverhead", func(p *Params) { p.CPUOverhead = -1 }},
		{"CPUOverhead", func(p *Params) { p.CPUOverhead = sim.Duration(-inf) }},
		{"SBDComputeShare", func(p *Params) { p.SBDComputeShare = 1.5 }},
		{"SBDComputeShare", func(p *Params) { p.SBDComputeShare = nan }},
		{"SBDBWShare", func(p *Params) { p.SBDBWShare = -0.1 }},
		{"SBDTax", func(p *Params) { p.SBDTax = inf }},
		{"SBDTax", func(p *Params) { p.SBDTax = -0.01 }},
		{"HybridTax", func(p *Params) { p.HybridTax = nan }},
	}
	for _, tc := range cases {
		p := DefaultParams()
		tc.mut(&p)
		_, err := New(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, p)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s %+v: err = %v, want one naming the field", tc.field, p, err)
		}
	}
	// The edges of each range stay legal.
	edge := DefaultParams()
	edge.KernelOverhead, edge.TPCommLatency, edge.CPUOverhead = 0, 0, 0
	edge.SBDComputeShare, edge.SBDBWShare, edge.SBDTax, edge.HybridTax = 0, 1, 0, 0
	if _, err := New(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, edge); err != nil {
		t.Errorf("edge params rejected: %v", err)
	}
}

func TestPrefillQuadraticDecodeLinear(t *testing.T) {
	m := opt13bTP2()
	// Prefill: superlinear growth in N (quadratic attention term), so
	// doubling N should more than double net compute time.
	p1 := m.PrefillTime(1024) - m.P.CPUOverhead
	p2 := m.PrefillTime(2048) - m.P.CPUOverhead
	if p2 < p1*2 {
		t.Errorf("prefill not superlinear: T(1024)=%v, T(2048)=%v", p1, p2)
	}
	// Decode: linear in ΣL after subtracting constant weight-read floor.
	d0 := m.DecodeTime(16, 0)
	d1 := m.DecodeTime(16, 16*1024)
	d2 := m.DecodeTime(16, 32*1024)
	grow1 := d1 - d0
	grow2 := d2 - d1
	if math.Abs(grow1.Seconds()-grow2.Seconds()) > 0.05*grow1.Seconds() {
		t.Errorf("decode growth not linear: +%v then +%v", grow1, grow2)
	}
}

func TestDecodeTimeNearPaperScale(t *testing.T) {
	// OPT-13B TP-2: one decode iteration at batch 16, avg ShareGPT ctx
	// (~866 tokens) should be O(10ms) — the scale the paper's 0.1 s TPOT
	// SLO (≈4× an iteration, §5.2) implies.
	m := opt13bTP2()
	d := m.DecodeTime(16, 16*866)
	if d < sim.Milliseconds(5) || d > sim.Milliseconds(40) {
		t.Errorf("OPT-13B decode iteration = %v, want 5-40ms", d)
	}
	// OPT-66B on TP-2,PP-2 should be a few× slower.
	m66 := MustNew(model.OPT66B, gpu.A800, Placement{TP: 2, PP: 2}, gpu.NVLinkBridge, DefaultParams())
	d66 := m66.DecodeTime(16, 16*866)
	if d66 < d {
		t.Errorf("OPT-66B iteration %v should exceed OPT-13B %v", d66, d)
	}
	if d66 > sim.Milliseconds(120) {
		t.Errorf("OPT-66B iteration = %v, implausibly slow", d66)
	}
}

func TestPrefillTimeNearPaperScale(t *testing.T) {
	// OPT-13B TP-2 prefill of the ShareGPT P90 prompt (1556 tokens)
	// must fit within the 0.25 s TTFT SLO (Table 4) with room to queue.
	m := opt13bTP2()
	p := m.PrefillTime(1556)
	if p > sim.Milliseconds(250) {
		t.Errorf("P90 prefill %v exceeds the whole TTFT SLO", p)
	}
	if p < sim.Milliseconds(20) {
		t.Errorf("P90 prefill %v implausibly fast", p)
	}
}

func TestHybridBatchInterference(t *testing.T) {
	// A decode iteration inside a hybrid batch with a 2048-token prefill
	// must be much slower than a decode-only iteration — the interference
	// that motivates the paper (§1).
	m := opt13bTP2()
	dAlone := m.DecodeTime(16, 16*1024)
	hybrid := m.IterTime(Batch{
		Prefill:      []PrefillSeg{{NewTokens: 2048}},
		DecodeReqs:   16,
		DecodeSumCtx: 16 * 1024,
	})
	if hybrid < dAlone*3 {
		t.Errorf("hybrid pass %v should be >=3x decode-only %v", hybrid, dAlone)
	}
}

func TestSBDMatchesFig8Shape(t *testing.T) {
	// Paper Fig. 8 (and §3.4 case study): with SBD, decode time stays
	// within a few percent of decode-only, and prefill pays a modest
	// penalty — far better than the hybrid pass for decode.
	for _, m := range []*CostModel{opt13bTP2(), llama70b()} {
		pre := PrefillOnly(2048)
		dec := DecodeOnly(16, 16*2048)
		tpIso := m.IterTime(pre)
		tdIso := m.IterTime(dec)
		tp := m.SBDPrefillTime(pre, dec)
		td := m.SBDDecodeTime(dec, pre)
		decSlow := td.Seconds() / tdIso.Seconds()
		preSlow := tp.Seconds() / tpIso.Seconds()
		if decSlow < 1.0 || decSlow > 1.25 {
			t.Errorf("%s: SBD decode slowdown = %.3f, want 1.00-1.25", m.Cfg.Name, decSlow)
		}
		if preSlow < 1.0 || preSlow > 1.35 {
			t.Errorf("%s: SBD prefill slowdown = %.3f, want 1.00-1.35", m.Cfg.Name, preSlow)
		}
		// SBD decode must beat the hybrid pass decode latency.
		hybrid := m.IterTime(Batch{Prefill: pre.Prefill, DecodeReqs: 16, DecodeSumCtx: 16 * 2048})
		if td >= hybrid {
			t.Errorf("%s: SBD decode %v not better than hybrid %v", m.Cfg.Name, td, hybrid)
		}
	}
}

func TestSBDLLaMA70BCaseStudy(t *testing.T) {
	// §3.4: LLaMA2-70B, 2048-token prefill. Paper: prefill-only ≈ 0.70 s
	// → 0.75 s under SBD (~1.07×); decode 0.33 → 0.34 s (~1.03×). Our
	// absolute times differ (their backend is less efficient) but the
	// ratios must land close.
	m := llama70b()
	pre := PrefillOnly(2048)
	dec := DecodeOnly(16, 16*2048)
	// Steady-state streams, as in the paper's measurement: decode
	// iterations run back-to-back for the prefill's whole duration.
	tp := m.SBDPrefillTime(pre, dec)
	td := m.SBDDecodeTime(dec, pre)
	preRatio := tp.Seconds() / m.IterTime(pre).Seconds()
	decRatio := td.Seconds() / m.IterTime(dec).Seconds()
	if preRatio < 1.02 || preRatio > 1.25 {
		t.Errorf("prefill SBD ratio = %.3f, want ~1.07", preRatio)
	}
	if decRatio < 1.01 || decRatio > 1.15 {
		t.Errorf("decode SBD ratio = %.3f, want ~1.03", decRatio)
	}
}

func TestSBDDegenerateBatches(t *testing.T) {
	m := opt13bTP2()
	pre := PrefillOnly(512)
	dec := DecodeOnly(8, 8*512)
	tp, td := m.SBDTimes(pre, Batch{})
	if tp != m.IterTime(pre) || td != 0 {
		t.Error("SBD with empty decode should degenerate to isolated prefill")
	}
	tp, td = m.SBDTimes(Batch{}, dec)
	if td != m.IterTime(dec) || tp != 0 {
		t.Error("SBD with empty prefill should degenerate to isolated decode")
	}
}

func TestChunkedSegmentCost(t *testing.T) {
	// A later chunk (with cached prefix) must cost more than the same
	// chunk from scratch (it attends over the prefix) but far less than
	// prefilling prefix+chunk from scratch.
	m := opt13bTP2()
	fromScratch := m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: 512}}})
	withPrefix := m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: 512, CtxBefore: 1536}}})
	whole := m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: 2048}}})
	if withPrefix <= fromScratch {
		t.Errorf("chunk with prefix %v should exceed from-scratch %v", withPrefix, fromScratch)
	}
	if withPrefix >= whole {
		t.Errorf("chunk with prefix %v should be below whole prefill %v", withPrefix, whole)
	}
}

func TestChunkedPrefillSumExceedsWhole(t *testing.T) {
	// Chunked prefill trades prefill latency for decode latency: the sum
	// of chunk times exceeds the single-pass time (paper §3.4 claims ~2×
	// at chunk=512 for a 2048 prompt once decode interference is added;
	// even alone, chunking must cost extra).
	m := opt13bTP2()
	whole := m.IterTime(PrefillOnly(2048))
	var chunked sim.Duration
	for done := 0; done < 2048; done += 512 {
		chunked += m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: 512, CtxBefore: done}}})
	}
	if chunked <= whole {
		t.Errorf("chunked total %v should exceed whole %v", chunked, whole)
	}
}

func TestTPSpeedsUpPrefill(t *testing.T) {
	p1 := MustNew(model.OPT13B, gpu.A800, Placement{TP: 1, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	p2 := opt13bTP2()
	t1 := p1.PrefillTime(2048)
	t2 := p2.PrefillTime(2048)
	if t2 >= t1 {
		t.Errorf("TP-2 prefill %v not faster than TP-1 %v", t2, t1)
	}
	// But not superlinear.
	if t2 < t1/2 {
		t.Errorf("TP-2 prefill %v superlinear vs %v", t2, t1)
	}
}

func TestPPAddsCommLatency(t *testing.T) {
	pp1 := MustNew(model.OPT66B, gpu.A800, Placement{TP: 4, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	pp2 := MustNew(model.OPT66B, gpu.A800, Placement{TP: 2, PP: 2}, gpu.NVLinkBridge, DefaultParams())
	// Same GPU count; TP-4 should give lower decode latency than TP-2,PP-2
	// (PP does not cut per-iteration latency).
	d1 := pp1.DecodeTime(16, 16*1024)
	d2 := pp2.DecodeTime(16, 16*1024)
	if d1 >= d2 {
		t.Errorf("TP-4 decode %v should beat TP-2,PP-2 %v", d1, d2)
	}
}

func TestKVCapacity(t *testing.T) {
	m := opt13bTP2()
	tokens := m.KVCapacityTokens(0.1)
	// 2×80 GB, ~26 GB weights, 90% usable → ~115 GB for KV at ~0.82 MB/token
	// → ~140k tokens. Sanity-range check.
	if tokens < 80_000 || tokens > 220_000 {
		t.Errorf("KV capacity = %d tokens, want ~140k", tokens)
	}
	// A placement that cannot even hold the weights has zero capacity.
	m70, err := New(model.LLaMA270B, gpu.A800, Placement{TP: 1, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := m70.KVCapacityTokens(0.1); got != 0 {
		t.Errorf("70B on one GPU KV capacity = %d, want 0", got)
	}
}

func TestBatchHelpers(t *testing.T) {
	b := Batch{Prefill: []PrefillSeg{{NewTokens: 100}, {NewTokens: 50, CtxBefore: 10}}, DecodeReqs: 4, DecodeSumCtx: 400}
	if b.PrefillTokens() != 150 {
		t.Errorf("PrefillTokens = %d", b.PrefillTokens())
	}
	if b.Tokens() != 154 {
		t.Errorf("Tokens = %d", b.Tokens())
	}
	if b.Empty() {
		t.Error("Empty")
	}
	if !(Batch{}).Empty() {
		t.Error("zero batch should be empty")
	}
	if (Batch{}).Tokens() != 0 {
		t.Error("zero batch tokens")
	}
	if m := opt13bTP2(); m.IterTime(Batch{}) != 0 {
		t.Error("empty batch should take zero time")
	}
}

// Property: iteration time is monotone under adding work.
func TestPropertyIterTimeMonotone(t *testing.T) {
	m := opt13bTP2()
	f := func(n, b, extra uint16) bool {
		nn := int(n%2048) + 1
		bb := int(b%64) + 1
		ctx := bb * (int(extra%1024) + 1)
		base := m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: nn}}, DecodeReqs: bb, DecodeSumCtx: ctx})
		bigger := m.IterTime(Batch{Prefill: []PrefillSeg{{NewTokens: nn + 64}}, DecodeReqs: bb + 1, DecodeSumCtx: ctx + 64})
		return bigger >= base && base > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SBD never makes either stream faster than isolated execution,
// and the extra delay each stream suffers is bounded by the overlap with
// the other stream (each stream always progresses at >= ~5% speed, so the
// overlap window is at most ~21x the other stream's isolated time).
func TestPropertySBDBounded(t *testing.T) {
	m := opt13bTP2()
	f := func(n, b uint16) bool {
		pre := PrefillOnly(int(n%2048) + 1)
		bb := int(b%32) + 1
		dec := DecodeOnly(bb, bb*512)
		tp, td := m.SBDTimes(pre, dec)
		tpIso, tdIso := m.IterTime(pre), m.IterTime(dec)
		const maxStall = 21
		return tp >= tpIso && td >= tdIso &&
			tp <= tpIso+maxStall*tdIso && td <= tdIso+maxStall*tpIso
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: under the overlap model a short prefill perturbs a long decode
// pass by at most the prefill's own (contended) duration.
func TestSBDShortPrefillSmallPenalty(t *testing.T) {
	m := opt13bTP2()
	pre := PrefillOnly(2)
	dec := DecodeOnly(15, 15*512)
	tp, td := m.SBDTimes(pre, dec)
	tdIso := m.IterTime(dec)
	if penalty := td - tdIso; penalty > tp {
		t.Errorf("decode penalty %v exceeds prefill overlap %v", penalty, tp)
	}
	if td > tdIso*3 {
		t.Errorf("tiny prefill inflated decode %v vs iso %v", td, tdIso)
	}
}

func TestWeightBytesPerGPU(t *testing.T) {
	m := llama70b()
	perGPU := m.WeightBytesPerGPU()
	if total := perGPU * 4; math.Abs(total-m.Cfg.WeightBytes()) > 1 {
		t.Error("weights should divide evenly across 4 GPUs")
	}
	// 70B FP16 = ~140 GB / 4 = ~35 GB per GPU.
	if gb := perGPU / 1e9; gb < 30 || gb > 40 {
		t.Errorf("per-GPU weights = %.1f GB, want ~35", gb)
	}
}

func TestPlacementString(t *testing.T) {
	if s := (Placement{TP: 2, PP: 1}).String(); s != "TP-2,PP-1" {
		t.Errorf("String = %q", s)
	}
}

// BenchmarkIterTime measures the roofline on engine-like shapes: decode
// passes whose ΣL grows every call, whole prompts, chunked segments and
// hybrid passes. CI gates it at 0 allocs/op.
func BenchmarkIterTime(b *testing.B) {
	m := opt13bTP2()
	shapes := []Batch{
		DecodeOnly(8, 8*600),
		DecodeOnly(64, 64*900),
		DecodeOnly(16, 16*2048),
		PrefillOnly(512),
		{Prefill: []PrefillSeg{{NewTokens: 512, CtxBefore: 1024}}},
		{Prefill: []PrefillSeg{{NewTokens: 256}}, DecodeReqs: 12, DecodeSumCtx: 12 * 700},
		{Prefill: []PrefillSeg{{NewTokens: 128}, {NewTokens: 384, CtxBefore: 512}}, DecodeReqs: 4, DecodeSumCtx: 3000},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shapes[i%len(shapes)]
		if s.DecodeReqs > 0 {
			s.DecodeSumCtx += (i / len(shapes)) % 1024 * s.DecodeReqs
		}
		iterSink = m.IterTime(s)
	}
}

var iterSink sim.Duration

// TestCostModelSharedAcrossGoroutines: a CostModel keeps no mutable state,
// so goroutines sharing one see exactly the serial results (run under
// -race).
func TestCostModelSharedAcrossGoroutines(t *testing.T) {
	m := llama70b()
	var shapes []Batch
	for n := 1; n <= 64; n++ {
		shapes = append(shapes, DecodeOnly(n, n*700), PrefillOnly(32*n),
			Batch{Prefill: []PrefillSeg{{NewTokens: 16 * n, CtxBefore: 64 * n}}, DecodeReqs: n, DecodeSumCtx: n * 300})
	}
	want := make([]sim.Duration, len(shapes))
	for i, s := range shapes {
		want[i] = m.IterTime(s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range shapes {
				j := (i + g*len(shapes)/4) % len(shapes)
				if got := m.IterTime(shapes[j]); got != want[j] {
					t.Errorf("goroutine %d shape %d: %v, serial %v", g, j, got, want[j])
				}
			}
		}()
	}
	wg.Wait()
}
