package perf

import (
	"math"
	"testing"
	"testing/quick"

	"windserve/internal/gpu"
	"windserve/internal/model"
	"windserve/internal/sim"
)

func TestOverlapTimesBothFullSpeed(t *testing.T) {
	// Rates of 1 mean no contention: completion equals isolated time.
	ta, tb := overlapTimes(2, 3, 1, 1)
	if ta != 2 || tb != 3 {
		t.Errorf("overlapTimes(1,1) = %v, %v", ta, tb)
	}
}

func TestOverlapTimesShortFirst(t *testing.T) {
	// A: 1s of work at half speed → finishes at 2s.
	// B: 10s of work at half speed until A drains (2s wall → 1s of B work
	// done), then full speed → 2 + 9 = 11s.
	ta, tb := overlapTimes(1, 10, 0.5, 0.5)
	if math.Abs(float64(ta)-2) > 1e-12 {
		t.Errorf("ta = %v, want 2", ta)
	}
	if math.Abs(float64(tb)-11) > 1e-12 {
		t.Errorf("tb = %v, want 11", tb)
	}
	// Symmetric case.
	tb2, ta2 := overlapTimes(10, 1, 0.5, 0.5)
	if ta2 != ta || tb2 != tb {
		t.Errorf("asymmetric: %v,%v vs %v,%v", ta2, tb2, ta, tb)
	}
}

// Property: overlapTimes never finishes earlier than isolated and never
// later than fully-contended execution.
func TestPropertyOverlapTimesBounds(t *testing.T) {
	f := func(a, b uint16, ra, rb uint8) bool {
		wa := sim.Duration(float64(a%1000)+1) / 1000
		wb := sim.Duration(float64(b%1000)+1) / 1000
		fa := 0.05 + 0.95*float64(ra)/255
		fb := 0.05 + 0.95*float64(rb)/255
		ta, tb := overlapTimes(wa, wb, fa, fb)
		if ta < wa || tb < wb {
			return false
		}
		return ta <= sim.Duration(wa.Seconds()/fa)+1e-12 && tb <= sim.Duration(wb.Seconds()/fb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp01(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {0.95, 0.95}, {0.99, 0.95}, {2, 0.95},
	}
	for _, c := range cases {
		if got := clamp01(c.in); got != c.want {
			t.Errorf("clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHybridTaxAppliesOnlyToMixedBatches(t *testing.T) {
	m := MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	noTax := DefaultParams()
	noTax.HybridTax = 0
	m0 := MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, noTax)

	pre := PrefillOnly(512)
	dec := DecodeOnly(8, 8*512)
	hybrid := Batch{Prefill: pre.Prefill, DecodeReqs: dec.DecodeReqs, DecodeSumCtx: dec.DecodeSumCtx}

	// Pure passes: identical with and without the tax.
	if m.IterTime(pre) != m0.IterTime(pre) {
		t.Error("hybrid tax leaked into pure prefill")
	}
	if m.IterTime(dec) != m0.IterTime(dec) {
		t.Error("hybrid tax leaked into pure decode")
	}
	// Mixed pass: taxed run strictly slower; the compute portion scales by
	// ~(1+tax) while the fixed CPU overhead does not.
	taxed, plain := m.IterTime(hybrid), m0.IterTime(hybrid)
	if taxed <= plain {
		t.Fatalf("hybrid tax not applied: %v vs %v", taxed, plain)
	}
	gotScale := (taxed - m.P.CPUOverhead).Seconds() / (plain - m0.P.CPUOverhead).Seconds()
	if math.Abs(gotScale-1.25) > 1e-9 {
		t.Errorf("hybrid scale = %v, want 1.25", gotScale)
	}
}

func TestPPCommAndLMHead(t *testing.T) {
	m := MustNew(model.OPT66B, gpu.A800, Placement{TP: 2, PP: 2}, gpu.NVLinkBridge, DefaultParams())
	if d := m.ppCommTime(0); d <= 0 {
		t.Error("PP comm should include fixed latency even for 0 tokens")
	}
	if m1, m2 := m.ppCommTime(100), m.ppCommTime(10000); m2 <= m1 {
		t.Error("PP comm should grow with tokens")
	}
	mTP := MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	if mTP.ppCommTime(1000) != 0 {
		t.Error("PP-1 should have no stage sends")
	}
	if l1, l2 := m.lmHeadTime(1), m.lmHeadTime(100); l2 <= l1 {
		t.Error("LM head should scale with tokens")
	}
}

func TestAttnWeightFrac(t *testing.T) {
	frac := func(m *CostModel) float64 { return m.k.AttnWeightBytes / m.Cfg.WeightBytesPerLayer() }
	// OPT (FFN=4H, MHA): attention holds 4H² of 12H² params = 1/3.
	opt := MustNew(model.OPT13B, gpu.A800, Placement{TP: 1, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	if f := frac(opt); math.Abs(f-1.0/3) > 1e-9 {
		t.Errorf("OPT attn weight fraction = %v, want 1/3", f)
	}
	// GQA shrinks the attention share.
	if f := frac(llama70b()); f >= 1.0/3 {
		t.Errorf("LLaMA2-70B attn fraction = %v, should be below OPT's", f)
	}
	// The two shares split the layer's weight bytes.
	for _, m := range []*CostModel{opt, llama70b()} {
		if got, want := m.k.AttnWeightBytes+m.k.FFNWeightBytes, m.Cfg.WeightBytesPerLayer(); math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s: weight shares sum to %v, want %v", m.Cfg.Name, got, want)
		}
	}
}

// A chunk's HBM traffic equals the same chunk's from scratch: the cached
// prefix KV re-read is not charged, only the extra score/value FLOPs.
func TestChunkIOMatchesScratch(t *testing.T) {
	for _, m := range []*CostModel{opt13bTP2(), llama70b()} {
		scratch := m.layerCost(Batch{Prefill: []PrefillSeg{{NewTokens: 512}}})
		chunk := m.layerCost(Batch{Prefill: []PrefillSeg{{NewTokens: 512, CtxBefore: 1536}}})
		if chunk.AttnIOBytes != scratch.AttnIOBytes || chunk.FFNIOBytes != scratch.FFNIOBytes {
			t.Errorf("%s: chunk IO %v/%v != scratch IO %v/%v", m.Cfg.Name,
				chunk.AttnIOBytes, chunk.FFNIOBytes, scratch.AttnIOBytes, scratch.FFNIOBytes)
		}
		if chunk.AttnFLOPs <= scratch.AttnFLOPs {
			t.Errorf("%s: chunk attention FLOPs %v should exceed scratch %v", m.Cfg.Name, chunk.AttnFLOPs, scratch.AttnFLOPs)
		}
	}
}

func TestSBDRatesDegenerate(t *testing.T) {
	m := MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	rp, rd := m.SBDRates(Batch{}, DecodeOnly(4, 400))
	if rp != 1 || rd != 1 {
		t.Errorf("empty prefill rates = %v, %v", rp, rd)
	}
	rp, rd = m.SBDRates(PrefillOnly(100), Batch{})
	if rp != 1 || rd != 1 {
		t.Errorf("empty decode rates = %v, %v", rp, rd)
	}
}

// Property: SBD rates are in (0,1] and a bigger decode batch never speeds
// up the prefill stream.
func TestPropertySBDRates(t *testing.T) {
	m := MustNew(model.OPT13B, gpu.A800, Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, DefaultParams())
	f := func(n uint16, b1, b2 uint8) bool {
		pre := PrefillOnly(int(n%2048) + 1)
		s, l := int(b1%32)+1, int(b2%32)+1
		if s > l {
			s, l = l, s
		}
		rpS, _ := m.SBDRates(pre, DecodeOnly(s, s*512))
		rpL, _ := m.SBDRates(pre, DecodeOnly(l, l*512))
		okRange := rpS > 0 && rpS <= 1 && rpL > 0 && rpL <= 1
		return okRange && rpL <= rpS+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
