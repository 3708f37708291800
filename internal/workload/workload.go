// Package workload generates the request streams WindServe is evaluated
// on. The paper uses two real datasets — ShareGPT (chatbot) and LongBench
// (summarization) — whose token-length statistics it reports in Table 2.
// We have neither dataset, so this package provides synthetic samplers
// whose prompt/output length distributions match Table 2's average, median
// and P90 by construction (empirical quantile curves with log-linear
// interpolation), plus Poisson arrivals as in the paper's §5.1.
//
// Traces can be saved to and replayed from JSON so that every system under
// comparison sees the identical request stream.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"windserve/internal/sim"
)

// Request is one inference request: a prompt to prefill and a number of
// output tokens to decode. Output length is how long the request *will*
// run — known to the workload generator (and used by the simulated engine
// to decide when EOS happens) but never revealed to the schedulers.
type Request struct {
	ID           uint64   `json:"id"`
	Arrival      sim.Time `json:"arrival"`
	PromptTokens int      `json:"prompt_tokens"`
	OutputTokens int      `json:"output_tokens"`

	// Session/prefix identity, set by scenario sources (zero elsewhere;
	// omitempty keeps legacy traces byte-identical). SessionID groups the
	// turns of one conversation for affinity routing. PrefixGroup names
	// the content-hash chain the prompt's first PrefixTokens tokens
	// belong to: two requests with the same group share KV blocks over
	// min(PrefixTokens) when prefix caching is on (see internal/kvcache).
	SessionID    uint64 `json:"session_id,omitempty"`
	PrefixGroup  uint64 `json:"prefix_group,omitempty"`
	PrefixTokens int    `json:"prefix_tokens,omitempty"`
}

// TotalTokens is the request's final context length.
func (r Request) TotalTokens() int { return r.PromptTokens + r.OutputTokens }

// QuantileKnot anchors the inverse CDF: a fraction U of samples fall at or
// below Value.
type QuantileKnot struct {
	U     float64
	Value float64
}

// LengthDist samples token counts from a piecewise log-linear inverse CDF
// through its knots. Median and P90 match the knots exactly; knot placement
// tunes the mean.
type LengthDist struct {
	Name  string
	Knots []QuantileKnot
}

// Validate checks knots are a proper inverse CDF over [0,1].
func (d LengthDist) Validate() error {
	if len(d.Knots) < 2 {
		return fmt.Errorf("workload: %s needs >= 2 knots", d.Name)
	}
	if d.Knots[0].U != 0 || d.Knots[len(d.Knots)-1].U != 1 {
		return fmt.Errorf("workload: %s knots must span u=0..1", d.Name)
	}
	for i := 1; i < len(d.Knots); i++ {
		if d.Knots[i].U <= d.Knots[i-1].U {
			return fmt.Errorf("workload: %s knot u values must increase", d.Name)
		}
		if d.Knots[i].Value < d.Knots[i-1].Value {
			return fmt.Errorf("workload: %s knot values must be non-decreasing", d.Name)
		}
	}
	if d.Knots[0].Value <= 0 {
		return fmt.Errorf("workload: %s values must be positive for log interpolation", d.Name)
	}
	return nil
}

// Quantile returns the token count at quantile u in [0,1].
func (d LengthDist) Quantile(u float64) int {
	if u <= 0 {
		return int(math.Round(d.Knots[0].Value))
	}
	if u >= 1 {
		return int(math.Round(d.Knots[len(d.Knots)-1].Value))
	}
	i := sort.Search(len(d.Knots), func(i int) bool { return d.Knots[i].U >= u })
	if i == 0 {
		i = 1
	}
	a, b := d.Knots[i-1], d.Knots[i]
	frac := (u - a.U) / (b.U - a.U)
	v := math.Exp(math.Log(a.Value) + frac*(math.Log(b.Value)-math.Log(a.Value)))
	n := int(math.Round(v))
	if n < 1 {
		n = 1
	}
	return n
}

// Sample draws one token count.
func (d LengthDist) Sample(rng *rand.Rand) int { return d.Quantile(rng.Float64()) }

// ExpectedMean returns the analytic mean of the distribution (the integral
// of the inverse CDF), used by tests to verify Table 2 agreement.
func (d LengthDist) ExpectedMean() float64 {
	total := 0.0
	for i := 1; i < len(d.Knots); i++ {
		a, b := d.Knots[i-1], d.Knots[i]
		w := b.U - a.U
		if a.Value == b.Value {
			total += w * a.Value
			continue
		}
		// Mean of exp(lerp(ln a, ln b)) over the segment.
		total += w * (b.Value - a.Value) / math.Log(b.Value/a.Value)
	}
	return total
}

// Dataset pairs a prompt and an output length distribution.
type Dataset struct {
	Name   string
	Prompt LengthDist
	Output LengthDist
	// MaxContext truncates prompt+output to the serving model's limit.
	MaxContext int
}

// ShareGPT approximates the ShareGPT dataset of Table 2:
// prompt avg 768.2 / median 695 / P90 1556; output avg 195.9 / median 87 /
// P90 518. Contexts are capped at OPT's 2048-token limit.
func ShareGPT() Dataset {
	return Dataset{
		Name: "ShareGPT",
		Prompt: LengthDist{Name: "sharegpt-prompt", Knots: []QuantileKnot{
			{0, 8}, {0.25, 350}, {0.5, 695}, {0.75, 1200}, {0.9, 1556}, {0.99, 1950}, {1, 2040},
		}},
		Output: LengthDist{Name: "sharegpt-output", Knots: []QuantileKnot{
			{0, 1}, {0.5, 87}, {0.9, 518}, {0.99, 1200}, {1, 1500},
		}},
		MaxContext: 2048,
	}
}

// LongBench approximates the LongBench dataset of Table 2:
// prompt avg 2890.4 / median 2887 / P90 3792; output avg 97.4 / median 12 /
// P90 369. Contexts are capped at LLaMA2's 4096-token limit.
func LongBench() Dataset {
	return Dataset{
		Name: "LongBench",
		Prompt: LengthDist{Name: "longbench-prompt", Knots: []QuantileKnot{
			{0, 1800}, {0.25, 2400}, {0.5, 2887}, {0.75, 3350}, {0.9, 3792}, {0.99, 4050}, {1, 4090},
		}},
		// The 0.9 knot sits above the target P90 of 369 because the 4096
		// context cap clips outputs drawn alongside long prompts; the
		// post-cap P90 lands on Table 2's value.
		Output: LengthDist{Name: "longbench-output", Knots: []QuantileKnot{
			{0, 1}, {0.5, 12}, {0.9, 415}, {0.99, 700}, {1, 1200},
		}},
		MaxContext: 4096,
	}
}

// Fixed returns a degenerate dataset where every request has exactly the
// given prompt and output lengths — useful for microbenchmarks and tests.
func Fixed(prompt, output, maxContext int) Dataset {
	return Dataset{
		Name: fmt.Sprintf("fixed-%dx%d", prompt, output),
		Prompt: LengthDist{Name: "fixed-prompt", Knots: []QuantileKnot{
			{0, float64(prompt)}, {1, float64(prompt)},
		}},
		Output: LengthDist{Name: "fixed-output", Knots: []QuantileKnot{
			{0, float64(output)}, {1, float64(output)},
		}},
		MaxContext: maxContext,
	}
}

// Mixture blends two datasets: each request draws its lengths from A with
// probability WeightA, else from B — the "mixed downstream workloads"
// scenario that motivates disaggregated serving (chatbot and summarization
// sharing one cluster).
func Mixture(a, b Dataset, weightA float64, maxContext int) Dataset {
	if weightA < 0 || weightA > 1 {
		panic("workload: mixture weight out of [0,1]")
	}
	return Dataset{
		Name:       fmt.Sprintf("mix(%.0f%% %s, %.0f%% %s)", 100*weightA, a.Name, 100*(1-weightA), b.Name),
		Prompt:     mixtureDist(a.Prompt, b.Prompt, weightA),
		Output:     mixtureDist(a.Output, b.Output, weightA),
		MaxContext: maxContext,
	}
}

// mixtureDist approximates the mixture of two quantile-knot distributions
// by sampling both on a fine grid of the mixture CDF. The resulting knot
// set reproduces the mixture's quantiles to grid resolution.
func mixtureDist(a, b LengthDist, wa float64) LengthDist {
	// Evaluate the mixture CDF on a merged value grid, then invert.
	const gridN = 256
	var knots []QuantileKnot
	lo := math.Min(a.Knots[0].Value, b.Knots[0].Value)
	hi := math.Max(a.Knots[len(a.Knots)-1].Value, b.Knots[len(b.Knots)-1].Value)
	cdf := func(d LengthDist, v float64) float64 {
		// Invert the quantile function numerically (it is monotone).
		loU, hiU := 0.0, 1.0
		for i := 0; i < 30; i++ {
			mid := (loU + hiU) / 2
			if float64(d.Quantile(mid)) <= v {
				loU = mid
			} else {
				hiU = mid
			}
		}
		return (loU + hiU) / 2
	}
	prevU := -1.0
	for i := 0; i <= gridN; i++ {
		v := lo + (hi-lo)*float64(i)/gridN
		u := wa*cdf(a, v) + (1-wa)*cdf(b, v)
		if i == 0 {
			u = 0
		}
		if i == gridN {
			u = 1
		}
		if u <= prevU {
			continue
		}
		prevU = u
		knots = append(knots, QuantileKnot{U: u, Value: math.Max(v, 1)})
	}
	if knots[len(knots)-1].U != 1 {
		knots = append(knots, QuantileKnot{U: 1, Value: hi})
	}
	return LengthDist{Name: fmt.Sprintf("mix-%s-%s", a.Name, b.Name), Knots: knots}
}

// ArrivalProcess produces inter-arrival gaps.
type ArrivalProcess interface {
	// NextGap returns the time until the next arrival.
	NextGap(rng *rand.Rand) sim.Duration
	Name() string
}

// PoissonArrivals models a Poisson process at the given rate (req/s), the
// arrival model of the paper's evaluation.
type PoissonArrivals struct{ Rate float64 }

// NextGap draws an exponential inter-arrival gap.
func (p PoissonArrivals) NextGap(rng *rand.Rand) sim.Duration {
	return sim.Seconds(rng.ExpFloat64() / p.Rate)
}

// Name implements ArrivalProcess.
func (p PoissonArrivals) Name() string { return fmt.Sprintf("poisson(%.2f)", p.Rate) }

// UniformArrivals spaces requests exactly 1/Rate apart (no burstiness).
type UniformArrivals struct{ Rate float64 }

// NextGap returns the constant gap.
func (u UniformArrivals) NextGap(rng *rand.Rand) sim.Duration {
	return sim.Seconds(1 / u.Rate)
}

// Name implements ArrivalProcess.
func (u UniformArrivals) Name() string { return fmt.Sprintf("uniform(%.2f)", u.Rate) }

// BurstyArrivals is a hyperexponential process: with probability BurstProb
// the gap shrinks by BurstFactor, modelling flash crowds. Mean rate stays
// Rate.
type BurstyArrivals struct {
	Rate        float64
	BurstProb   float64 // fraction of arrivals in bursts
	BurstFactor float64 // how much tighter burst gaps are (>1)
}

// NextGap draws from the two-phase hyperexponential.
func (b BurstyArrivals) NextGap(rng *rand.Rand) sim.Duration {
	// Scale the two phases so the mean gap remains 1/Rate.
	slowScale := (1 - b.BurstProb*(1-1/b.BurstFactor)) // normalizer
	mean := 1 / b.Rate
	if rng.Float64() < b.BurstProb {
		return sim.Seconds(rng.ExpFloat64() * mean / b.BurstFactor / slowScale)
	}
	return sim.Seconds(rng.ExpFloat64() * mean / slowScale)
}

// Name implements ArrivalProcess.
func (b BurstyArrivals) Name() string {
	return fmt.Sprintf("bursty(%.2f,p=%.2f,f=%.1f)", b.Rate, b.BurstProb, b.BurstFactor)
}

// Generator materializes request traces.
type Generator struct {
	Dataset Dataset
	Process ArrivalProcess
	rng     *rand.Rand
	nextID  uint64
	clock   sim.Time
}

// NewGenerator builds a deterministic generator from a seed.
func NewGenerator(ds Dataset, p ArrivalProcess, seed int64) *Generator {
	return &Generator{Dataset: ds, Process: p, rng: rand.New(rand.NewSource(seed)), nextID: 1}
}

// Next produces the next request in the trace.
func (g *Generator) Next() Request {
	g.clock = g.clock.Add(g.Process.NextGap(g.rng))
	prompt := g.Dataset.Prompt.Sample(g.rng)
	output := g.Dataset.Output.Sample(g.rng)
	if g.Dataset.MaxContext > 0 {
		if prompt > g.Dataset.MaxContext-1 {
			prompt = g.Dataset.MaxContext - 1
		}
		if prompt+output > g.Dataset.MaxContext {
			output = g.Dataset.MaxContext - prompt
		}
	}
	if output < 1 {
		output = 1
	}
	r := Request{ID: g.nextID, Arrival: g.clock, PromptTokens: prompt, OutputTokens: output}
	g.nextID++
	return r
}

// Source yields requests one at a time in non-decreasing arrival order.
// It is the streaming counterpart of a materialized []Request trace: the
// serve loop pulls the next request only when the previous arrival event
// fires, so a million-request run never holds the full trace in memory.
type Source interface {
	// Next returns the next request, or ok=false when the stream ends.
	Next() (Request, bool)
}

// SliceSource replays a materialized trace as a Source.
type SliceSource struct {
	reqs []Request
	i    int
}

// NewSliceSource wraps an existing trace.
func NewSliceSource(reqs []Request) *SliceSource { return &SliceSource{reqs: reqs} }

// Next implements Source.
func (s *SliceSource) Next() (Request, bool) {
	if s.i >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

// genSource streams n requests from a generator.
type genSource struct {
	g         *Generator
	remaining int
}

func (s *genSource) Next() (Request, bool) {
	if s.remaining <= 0 {
		return Request{}, false
	}
	s.remaining--
	return s.g.Next(), true
}

// Source returns a stream of the generator's next n requests (none when
// n <= 0). Draining it yields the identical sequence Generate(n)
// materializes for the same generator state.
func (g *Generator) Source(n int) Source { return &genSource{g: g, remaining: n} }

// Generate produces n requests in arrival order (none when n <= 0).
func (g *Generator) Generate(n int) []Request {
	out := make([]Request, 0, max(n, 0))
	src := g.Source(n)
	for {
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Concat joins two traces into one request stream: b's arrivals are
// shifted to begin gap after a's last arrival and all IDs are renumbered
// sequentially. Use it to build load-shift scenarios (e.g. a rate step).
func Concat(a, b []Request, gap sim.Duration) []Request {
	out := make([]Request, 0, len(a)+len(b))
	out = append(out, a...)
	var offset sim.Time
	if len(a) > 0 {
		offset = a[len(a)-1].Arrival.Add(gap)
	}
	var bStart sim.Time
	if len(b) > 0 {
		bStart = b[0].Arrival
	}
	for _, r := range b {
		r.Arrival = offset.Add(r.Arrival.Sub(bStart))
		out = append(out, r)
	}
	for i := range out {
		out[i].ID = uint64(i + 1)
	}
	return out
}

// SaveTrace writes requests as a JSON array.
func SaveTrace(w io.Writer, reqs []Request) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(reqs)
}

// TraceReader streams a JSON trace one request at a time, validating
// arrival ordering as it goes, without ever materializing the array.
// Follow the bufio.Scanner convention: iterate Next until it returns
// ok=false, then check Err.
type TraceReader struct {
	dec     *json.Decoder
	err     error
	started bool
	done    bool
	idx     int
	last    sim.Time
}

// NewTraceReader wraps a JSON trace stream.
func NewTraceReader(r io.Reader) *TraceReader {
	return &TraceReader{dec: json.NewDecoder(r)}
}

// Next implements Source. It returns ok=false at end of trace or on the
// first malformed entry; Err distinguishes the two.
func (t *TraceReader) Next() (Request, bool) {
	if t.done || t.err != nil {
		return Request{}, false
	}
	if !t.started {
		t.started = true
		tok, err := t.dec.Token()
		if err != nil {
			t.fail(err)
			return Request{}, false
		}
		if d, ok := tok.(json.Delim); !ok || d != '[' {
			t.err = fmt.Errorf("workload: decoding trace: expected JSON array, got %v", tok)
			return Request{}, false
		}
	}
	if !t.dec.More() {
		if _, err := t.dec.Token(); err != nil { // consume the closing ']'
			t.fail(err)
			return Request{}, false
		}
		t.done = true
		return Request{}, false
	}
	var r Request
	if err := t.dec.Decode(&r); err != nil {
		t.fail(err)
		return Request{}, false
	}
	if t.idx > 0 && r.Arrival < t.last {
		t.err = fmt.Errorf("workload: trace not sorted by arrival at index %d", t.idx)
		return Request{}, false
	}
	t.last = r.Arrival
	t.idx++
	return r, true
}

func (t *TraceReader) fail(err error) {
	t.err = fmt.Errorf("workload: decoding trace: %w", err)
}

// Err returns the first error encountered, if any. A truncated stream
// (including one cut mid-line) surfaces here as an unexpected-EOF decode
// error rather than silently ending the trace.
func (t *TraceReader) Err() error { return t.err }

// LoadTrace reads a JSON trace and validates ordering. It is a thin
// adapter over TraceReader that materializes the stream.
func LoadTrace(r io.Reader) ([]Request, error) {
	tr := NewTraceReader(r)
	var reqs []Request
	for {
		q, ok := tr.Next()
		if !ok {
			break
		}
		reqs = append(reqs, q)
	}
	if err := tr.Err(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// TraceStats summarizes a trace the way Table 2 does.
type TraceStats struct {
	Count                              int
	PromptAvg, PromptMedian, PromptP90 float64
	OutputAvg, OutputMedian, OutputP90 float64
	DurationSec                        float64
	RatePerSec                         float64
}

// Summarize computes Table 2-style statistics for a trace.
func Summarize(reqs []Request) TraceStats {
	if len(reqs) == 0 {
		return TraceStats{}
	}
	prompts := make([]float64, len(reqs))
	outputs := make([]float64, len(reqs))
	for i, r := range reqs {
		prompts[i] = float64(r.PromptTokens)
		outputs[i] = float64(r.OutputTokens)
	}
	sort.Float64s(prompts)
	sort.Float64s(outputs)
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	pct := func(xs []float64, p float64) float64 {
		idx := p / 100 * float64(len(xs)-1)
		lo := int(idx)
		if lo >= len(xs)-1 {
			return xs[len(xs)-1]
		}
		frac := idx - float64(lo)
		return xs[lo]*(1-frac) + xs[lo+1]*frac
	}
	dur := float64(reqs[len(reqs)-1].Arrival - reqs[0].Arrival)
	st := TraceStats{
		Count:        len(reqs),
		PromptAvg:    mean(prompts),
		PromptMedian: pct(prompts, 50),
		PromptP90:    pct(prompts, 90),
		OutputAvg:    mean(outputs),
		OutputMedian: pct(outputs, 50),
		OutputP90:    pct(outputs, 90),
		DurationSec:  dur,
	}
	if dur > 0 {
		st.RatePerSec = float64(len(reqs)) / dur
	}
	return st
}
