package perf

import (
	"math"
	"math/rand"
	"testing"

	"windserve/internal/gpu"
	"windserve/internal/model"
	"windserve/internal/sim"
)

// The reference roofline recomputes every constant on every call from the
// model.Config methods and the GPU spec, with nothing folded in New. It
// lives only here, as the baseline the folded path must match bit for bit.

func refAttnWeightFrac(c model.Config) float64 {
	attn := 2*float64(c.Hidden)*float64(c.Hidden) + 2*float64(c.Hidden)*float64(c.KVDim())
	return attn / c.ParamsPerLayer()
}

func refLayerCost(m *CostModel, b Batch) model.LayerCost {
	var total model.LayerCost
	h := float64(m.Cfg.Hidden)
	for _, s := range b.Prefill {
		lc := m.Cfg.PrefillLayerCost(s.NewTokens)
		if s.CtxBefore > 0 {
			lc.AttnFLOPs += 4 * float64(s.NewTokens) * float64(s.CtxBefore) * h
		}
		total.AttnFLOPs += lc.AttnFLOPs
		total.FFNFLOPs += lc.FFNFLOPs
	}
	if b.DecodeReqs > 0 {
		lc := m.Cfg.DecodeLayerCost(b.DecodeReqs, b.DecodeSumCtx)
		total.AttnFLOPs += lc.AttnFLOPs
		total.FFNFLOPs += lc.FFNFLOPs
		total.AttnIOBytes += lc.AttnIOBytes - m.Cfg.WeightBytesPerLayer()*refAttnWeightFrac(m.Cfg)
		total.FFNIOBytes += lc.FFNIOBytes - m.Cfg.WeightBytesPerLayer()*(1-refAttnWeightFrac(m.Cfg))
	}
	if !b.Empty() {
		total.AttnIOBytes += m.Cfg.WeightBytesPerLayer() * refAttnWeightFrac(m.Cfg)
		total.FFNIOBytes += m.Cfg.WeightBytesPerLayer() * (1 - refAttnWeightFrac(m.Cfg))
		act := 4 * float64(b.Tokens()) * h
		total.AttnIOBytes += act
		total.FFNIOBytes += act
	}
	return total
}

func refLayerTime(m *CostModel, lc model.LayerCost, tokens int) sim.Duration {
	tp := float64(m.Place.TP)
	compute := lc.FLOPs() / tp / (m.GPU.FLOPS() * m.P.ComputeEff)
	io := lc.IOBytes() / tp / (m.GPU.BandwidthBytes() * m.P.BWEff)
	t := sim.Seconds(math.Max(compute, io)) + m.P.KernelOverhead
	if m.Place.TP > 1 {
		bytes := float64(tokens) * float64(m.Cfg.Hidden) * model.BytesFP16
		ring := 2 * (tp - 1) / tp * bytes / m.TPLink.BytesPerSecond()
		t += 2 * (sim.Seconds(ring) + m.P.TPCommLatency)
	}
	return t
}

func refIterTime(m *CostModel, b Batch) sim.Duration {
	if b.Empty() {
		return 0
	}
	tokens := b.Tokens()
	total := refLayerTime(m, refLayerCost(m, b), tokens) * sim.Duration(m.Cfg.Layers)
	if m.Place.PP > 1 {
		bytes := float64(tokens) * float64(m.Cfg.Hidden) * model.BytesFP16
		per := sim.Seconds(bytes/m.TPLink.BytesPerSecond()) + sim.Microseconds(m.TPLink.LatencyUS)
		total += per * sim.Duration(m.Place.PP-1)
	}
	flops := 2 * float64(tokens) * float64(m.Cfg.Hidden) * float64(m.Cfg.VocabSize)
	total += sim.Seconds(flops / float64(m.Place.TP) / (m.GPU.FLOPS() * m.P.ComputeEff))
	if len(b.Prefill) > 0 && b.DecodeReqs > 0 {
		total *= sim.Duration(1 + m.P.HybridTax)
	}
	return total + m.P.CPUOverhead
}

func refBatchCost(m *CostModel, b Batch) model.LayerCost {
	lc := refLayerCost(m, b)
	l := float64(m.Cfg.Layers)
	return model.LayerCost{
		AttnFLOPs: lc.AttnFLOPs * l, FFNFLOPs: lc.FFNFLOPs * l,
		AttnIOBytes: lc.AttnIOBytes * l, FFNIOBytes: lc.FFNIOBytes * l,
	}
}

func refSBDRates(m *CostModel, prefill, decode Batch) (rp, rd float64) {
	if prefill.Empty() || decode.Empty() {
		return 1, 1
	}
	plc, dlc := refLayerCost(m, prefill), refLayerCost(m, decode)
	tpf := float64(m.Place.TP)
	pIO := plc.IOBytes() / tpf / (m.GPU.BandwidthBytes() * m.P.BWEff)
	pTotal := math.Max(pIO, plc.FLOPs()/tpf/(m.GPU.FLOPS()*m.P.ComputeEff))
	prefillBWDemand := clamp01(pIO / pTotal * m.P.SBDBWShare)
	dCompute := dlc.FLOPs() / tpf / (m.GPU.FLOPS() * m.P.ComputeEff)
	dTotal := math.Max(dCompute, dlc.IOBytes()/tpf/(m.GPU.BandwidthBytes()*m.P.BWEff))
	decodeComputeDemand := clamp01(dCompute / dTotal * m.P.SBDComputeShare)
	return 1 / ((1 + decodeComputeDemand) * (1 + m.P.SBDTax)), 1 / ((1 + prefillBWDemand) * (1 + m.P.SBDTax))
}

func refSBDDecodeTime(m *CostModel, decode, prefill Batch) sim.Duration {
	td := refIterTime(m, decode)
	if prefill.Empty() {
		return td
	}
	_, rd := refSBDRates(m, prefill, decode)
	return sim.Duration(td.Seconds() / rd)
}

// randBatch draws an engine-shaped pass: decode-only, one whole prompt,
// several chunked segments, or a hybrid of prefill segments and decodes.
func randBatch(rng *rand.Rand, maxCtx int) Batch {
	var b Batch
	kind := rng.Intn(4) // 0 decode-only, 1 whole prompt, 2 chunked, 3 hybrid
	segs := 0
	switch kind {
	case 1:
		segs = 1
	case 2, 3:
		segs = 1 + rng.Intn(4)
	}
	for i := 0; i < segs; i++ {
		s := PrefillSeg{NewTokens: 1 + rng.Intn(maxCtx)}
		if kind != 1 && rng.Intn(2) == 0 {
			s.CtxBefore = rng.Intn(maxCtx)
		}
		b.Prefill = append(b.Prefill, s)
	}
	if kind == 0 || kind == 3 {
		b.DecodeReqs = 1 + rng.Intn(256)
		b.DecodeSumCtx = b.DecodeReqs + rng.Intn(b.DecodeReqs*maxCtx)
	}
	return b
}

// TestRooflineMatchesReference: the folded roofline returns bit-identical
// IterTime, BatchCost, SBDRates and SBDDecodeTime to the reference over
// random batches, for every built-in model (MHA and GQA, plain and gated
// FFN) at TP 1/2/4 and PP 1/2.
func TestRooflineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, cfg := range []model.Config{model.OPT13B, model.OPT30B, model.OPT66B, model.LLaMA213B, model.LLaMA270B} {
		for _, tp := range []int{1, 2, 4} {
			for _, pp := range []int{1, 2} {
				m := MustNew(cfg, gpu.A800, Placement{TP: tp, PP: pp}, gpu.NVLinkBridge, DefaultParams())
				for i := 0; i < 200; i++ {
					b, other := randBatch(rng, cfg.MaxContext), randBatch(rng, cfg.MaxContext)
					if got, want := m.IterTime(b), refIterTime(m, b); got != want {
						t.Fatalf("%s %v %+v: IterTime %v, reference %v", cfg.Name, m.Place, b, got, want)
					}
					if got, want := m.BatchCost(b), refBatchCost(m, b); got != want {
						t.Fatalf("%s %v %+v: BatchCost %+v, reference %+v", cfg.Name, m.Place, b, got, want)
					}
					rp, rd := m.SBDRates(other, b)
					wp, wd := refSBDRates(m, other, b)
					if rp != wp || rd != wd {
						t.Fatalf("%s %v %+v|%+v: SBDRates %v,%v, reference %v,%v", cfg.Name, m.Place, other, b, rp, rd, wp, wd)
					}
					if got, want := m.SBDDecodeTime(b, other), refSBDDecodeTime(m, b, other); got != want {
						t.Fatalf("%s %v %+v|%+v: SBDDecodeTime %v, reference %v", cfg.Name, m.Place, b, other, got, want)
					}
				}
			}
		}
	}
}
