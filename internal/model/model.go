// Package model describes the transformer architectures WindServe serves
// (OPT and LLaMA2 families) and implements the per-layer FLOPs and IO-byte
// accounting of the paper's Table 1, which underlies both the simulated
// hardware timing (internal/perf) and the Global Scheduler's Profiler.
//
// Only architecture metadata is modelled — layer counts, hidden sizes,
// attention geometry, KV-cache footprint. No tensor math is performed.
package model

import "fmt"

// BytesFP16 is the storage size of one FP16 scalar; all paper experiments
// run FP16 weights and KV cache.
const BytesFP16 = 2

// AttentionKind distinguishes multi-head attention from grouped-query
// attention (LLaMA2-70B), which shrinks the KV cache and its transfer cost
// (paper §5.2).
type AttentionKind int

const (
	// MHA is standard multi-head attention (KV heads == query heads).
	MHA AttentionKind = iota
	// GQA is grouped-query attention (fewer KV heads).
	GQA
)

func (k AttentionKind) String() string {
	if k == GQA {
		return "GQA"
	}
	return "MHA"
}

// Config describes one decoder-only transformer.
type Config struct {
	// Name is the model's common name, e.g. "OPT-13B".
	Name string
	// Layers is the number of transformer blocks.
	Layers int
	// Hidden is the model (embedding) dimension H.
	Hidden int
	// Heads is the number of query heads.
	Heads int
	// KVHeads is the number of key/value heads (== Heads for MHA).
	KVHeads int
	// FFNDim is the FFN intermediate dimension (4H for OPT; larger,
	// gated, for LLaMA2).
	FFNDim int
	// GatedFFN is true for SwiGLU-style FFNs with three weight matrices
	// (LLaMA2) instead of two (OPT).
	GatedFFN bool
	// MaxContext is the maximum supported context length in tokens
	// (2048 for OPT, 4096 for LLaMA2).
	MaxContext int
	// VocabSize is the vocabulary size (embedding/LM-head weights).
	VocabSize int
}

// Built-in configs for the models evaluated in the paper.
var (
	OPT13B = Config{
		Name: "OPT-13B", Layers: 40, Hidden: 5120, Heads: 40, KVHeads: 40,
		FFNDim: 20480, MaxContext: 2048, VocabSize: 50272,
	}
	OPT30B = Config{
		Name: "OPT-30B", Layers: 48, Hidden: 7168, Heads: 56, KVHeads: 56,
		FFNDim: 28672, MaxContext: 2048, VocabSize: 50272,
	}
	OPT66B = Config{
		Name: "OPT-66B", Layers: 64, Hidden: 9216, Heads: 72, KVHeads: 72,
		FFNDim: 36864, MaxContext: 2048, VocabSize: 50272,
	}
	LLaMA213B = Config{
		Name: "LLaMA2-13B", Layers: 40, Hidden: 5120, Heads: 40, KVHeads: 40,
		FFNDim: 13824, GatedFFN: true, MaxContext: 4096, VocabSize: 32000,
	}
	LLaMA270B = Config{
		Name: "LLaMA2-70B", Layers: 80, Hidden: 8192, Heads: 64, KVHeads: 8,
		FFNDim: 28672, GatedFFN: true, MaxContext: 4096, VocabSize: 32000,
	}
)

// ByName returns a built-in config by its Name, or an error.
func ByName(name string) (Config, error) {
	for _, c := range []Config{OPT13B, OPT30B, OPT66B, LLaMA213B, LLaMA270B} {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown model %q", name)
}

// Attention returns MHA or GQA based on head counts.
func (c Config) Attention() AttentionKind {
	if c.KVHeads < c.Heads {
		return GQA
	}
	return MHA
}

// HeadDim returns the per-head dimension H / Heads.
func (c Config) HeadDim() int { return c.Hidden / c.Heads }

// KVDim returns the total key (or value) projection width
// KVHeads · HeadDim; equals Hidden for MHA.
func (c Config) KVDim() int { return c.KVHeads * c.HeadDim() }

// KVBytesPerToken returns the KV-cache footprint of one token across all
// layers: 2 tensors (K and V) × KVDim × FP16 × Layers.
//
// For OPT-13B this is ~0.78 MiB/token, i.e. ~1.6 GB for a 2048-token
// context — the paper's "~1.5 GB" example in §2.2.
func (c Config) KVBytesPerToken() float64 {
	return float64(2*c.KVDim()*BytesFP16) * float64(c.Layers)
}

// attnParams returns attention weight parameters per layer:
// Q and output projections (H×H each) plus K and V projections (H×KVDim).
func (c Config) attnParams() float64 {
	h := float64(c.Hidden)
	return 2*h*h + 2*h*float64(c.KVDim())
}

// ffnParams returns FFN weight parameters per layer: two matrices H×F
// (OPT) or three (gated LLaMA2).
func (c Config) ffnParams() float64 {
	mats := 2.0
	if c.GatedFFN {
		mats = 3
	}
	return mats * float64(c.Hidden) * float64(c.FFNDim)
}

// ParamsPerLayer returns weight parameters in one transformer block.
func (c Config) ParamsPerLayer() float64 { return c.attnParams() + c.ffnParams() }

// TotalParams approximates total parameters including embeddings.
func (c Config) TotalParams() float64 {
	return c.ParamsPerLayer()*float64(c.Layers) + float64(c.VocabSize*c.Hidden)
}

// WeightBytes returns total FP16 weight bytes for the model.
func (c Config) WeightBytes() float64 { return c.TotalParams() * BytesFP16 }

// WeightBytesPerLayer returns FP16 weight bytes for one block.
func (c Config) WeightBytesPerLayer() float64 { return c.ParamsPerLayer() * BytesFP16 }

// LayerCost carries the Table 1 accounting for one transformer block.
type LayerCost struct {
	// AttnFLOPs and FFNFLOPs are floating-point operations.
	AttnFLOPs, FFNFLOPs float64
	// AttnIOBytes and FFNIOBytes are HBM traffic: weight reads plus, for
	// decode attention, KV-cache reads.
	AttnIOBytes, FFNIOBytes float64
}

// FLOPs returns total FLOPs for the block.
func (lc LayerCost) FLOPs() float64 { return lc.AttnFLOPs + lc.FFNFLOPs }

// IOBytes returns total HBM bytes moved for the block.
func (lc LayerCost) IOBytes() float64 { return lc.AttnIOBytes + lc.FFNIOBytes }

// Consts are a Config's per-layer Table 1 constants, derived once so hot
// paths (the perf roofline runs per forward pass) neither redo the
// divisions nor copy the Config. Each field is computed from the Config
// methods exactly as those compute it, so results are bit-identical.
type Consts struct {
	// H is the hidden size and KVRatio is KVDim/H (1 for MHA; GQA
	// shrinks KV read/write traffic).
	H, KVRatio float64
	// AttnParams and FFNParams are the per-layer weight parameters.
	AttnParams, FFNParams float64
	// AttnWeightBytes and FFNWeightBytes split WeightBytesPerLayer by
	// the attention share of the parameters: the weight reads of one
	// layer's attention and FFN.
	AttnWeightBytes, FFNWeightBytes float64
}

// Consts derives the per-layer constants.
func (c Config) Consts() Consts {
	h := float64(c.Hidden)
	attn := c.attnParams()
	frac := attn / c.ParamsPerLayer()
	w := c.WeightBytesPerLayer()
	return Consts{
		H: h, KVRatio: float64(c.KVDim()) / h,
		AttnParams: attn, FFNParams: c.ffnParams(),
		AttnWeightBytes: w * frac, FFNWeightBytes: w * (1 - frac),
	}
}

// PrefillLayerCost returns per-layer cost of prefilling n tokens
// (paper Table 1, prefill column):
//
//	Attn FLOPs = 8NH² + 4N²H   (projections + score/value matmuls; GQA
//	                            scales the KV projections)
//	FFN  FLOPs = 16NH²          (OPT: two H×4H matmuls)
//
// Prefill is compute-bound; IO bytes are the weight reads (amortized over
// the N tokens in one pass) plus activation traffic ≈ weights only, as in
// Table 1's FFN entry 16H².
func (k *Consts) PrefillLayerCost(n int) LayerCost {
	nf := float64(n)
	// Projections: 2 FLOPs per weight per token.
	proj := 2 * nf * k.AttnParams
	// Attention score (QKᵀ) and value (PV) matmuls: 2·N²·H each.
	score := 4 * nf * nf * k.H
	ffn := 2 * nf * k.FFNParams
	return LayerCost{
		AttnFLOPs:   proj + score,
		FFNFLOPs:    ffn,
		AttnIOBytes: k.AttnParams * BytesFP16,
		FFNIOBytes:  k.FFNParams * BytesFP16,
	}
}

// DecodeLayerCost returns per-layer cost of one decode step for a batch of
// b requests whose context lengths sum to sumCtx (paper Table 1, decode
// column):
//
//	Attn FLOPs = 8BH² + 4·ΣL·H
//	FFN  FLOPs = 16BH²
//	IO bytes   = weight reads (24H² for OPT) + KV reads 4·ΣL·H
//
// Decode is IO-bound: the weight and KV reads dominate.
func (k *Consts) DecodeLayerCost(b int, sumCtx int) LayerCost {
	bf, lf := float64(b), float64(sumCtx)
	proj := 2 * bf * k.AttnParams
	score := 4 * lf * k.H * k.KVRatio // attend over ΣL cached tokens
	ffn := 2 * bf * k.FFNParams
	return LayerCost{
		AttnFLOPs:   proj + score,
		FFNFLOPs:    ffn,
		AttnIOBytes: k.AttnParams*BytesFP16 + 4*lf*k.H*k.KVRatio,
		FFNIOBytes:  k.FFNParams * BytesFP16,
	}
}

// PrefillLayerCost is Consts.PrefillLayerCost for one call.
func (c Config) PrefillLayerCost(n int) LayerCost {
	k := c.Consts()
	return k.PrefillLayerCost(n)
}

// DecodeLayerCost is Consts.DecodeLayerCost for one call.
func (c Config) DecodeLayerCost(b int, sumCtx int) LayerCost {
	k := c.Consts()
	return k.DecodeLayerCost(b, sumCtx)
}

// PrefillCost returns whole-model cost of prefilling n tokens.
func (c Config) PrefillCost(n int) LayerCost { return c.scale(c.PrefillLayerCost(n)) }

// DecodeCost returns whole-model cost of one decode step.
func (c Config) DecodeCost(b, sumCtx int) LayerCost { return c.scale(c.DecodeLayerCost(b, sumCtx)) }

func (c Config) scale(lc LayerCost) LayerCost {
	l := float64(c.Layers)
	return LayerCost{
		AttnFLOPs:   lc.AttnFLOPs * l,
		FFNFLOPs:    lc.FFNFLOPs * l,
		AttnIOBytes: lc.AttnIOBytes * l,
		FFNIOBytes:  lc.FFNIOBytes * l,
	}
}

// Validate checks internal consistency of a config.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("model %s: non-positive layers", c.Name)
	case c.Hidden <= 0:
		return fmt.Errorf("model %s: non-positive hidden", c.Name)
	case c.Heads <= 0 || c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %s: heads %d must divide hidden %d", c.Name, c.Heads, c.Hidden)
	case c.KVHeads <= 0 || c.KVHeads > c.Heads || c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model %s: invalid KV heads %d for %d heads", c.Name, c.KVHeads, c.Heads)
	case c.FFNDim <= 0:
		return fmt.Errorf("model %s: non-positive FFN dim", c.Name)
	case c.MaxContext <= 0:
		return fmt.Errorf("model %s: non-positive max context", c.Name)
	}
	return nil
}

func (c Config) String() string {
	return fmt.Sprintf("%s (L=%d H=%d heads=%d kv=%d ffn=%d %s ctx=%d)",
		c.Name, c.Layers, c.Hidden, c.Heads, c.KVHeads, c.FFNDim, c.Attention(), c.MaxContext)
}
