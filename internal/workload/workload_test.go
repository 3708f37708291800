package workload

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"windserve/internal/sim"
)

func within(got, want, relTol float64) bool {
	return math.Abs(got-want) <= relTol*want
}

func TestDistValidate(t *testing.T) {
	good := ShareGPT().Prompt
	if err := good.Validate(); err != nil {
		t.Errorf("ShareGPT prompt: %v", err)
	}
	bad := []LengthDist{
		{Name: "one-knot", Knots: []QuantileKnot{{0, 1}}},
		{Name: "no-zero", Knots: []QuantileKnot{{0.1, 1}, {1, 2}}},
		{Name: "no-one", Knots: []QuantileKnot{{0, 1}, {0.9, 2}}},
		{Name: "non-monotone-u", Knots: []QuantileKnot{{0, 1}, {0.5, 2}, {0.5, 3}, {1, 4}}},
		{Name: "decreasing-v", Knots: []QuantileKnot{{0, 5}, {0.5, 2}, {1, 9}}},
		{Name: "zero-value", Knots: []QuantileKnot{{0, 0}, {1, 9}}},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", d.Name)
		}
	}
}

func TestQuantileEndpointsAndMonotone(t *testing.T) {
	d := ShareGPT().Prompt
	if d.Quantile(0) != 8 || d.Quantile(-1) != 8 {
		t.Errorf("Q(0) = %d", d.Quantile(0))
	}
	if d.Quantile(1) != 2040 || d.Quantile(2) != 2040 {
		t.Errorf("Q(1) = %d", d.Quantile(1))
	}
	prev := 0
	for u := 0.0; u <= 1.0; u += 0.01 {
		v := d.Quantile(u)
		if v < prev {
			t.Fatalf("quantile not monotone at u=%.2f: %d < %d", u, v, prev)
		}
		prev = v
	}
}

// The headline fidelity test: sampled statistics must match the paper's
// Table 2 within tight tolerances.
func TestTable2Statistics(t *testing.T) {
	cases := []struct {
		ds               Dataset
		pAvg, pMed, pP90 float64
		oAvg, oMed, oP90 float64
	}{
		{ShareGPT(), 768.2, 695, 1556, 195.9, 87, 518},
		{LongBench(), 2890.4, 2887, 3792, 97.4, 12, 369},
	}
	for _, c := range cases {
		g := NewGenerator(c.ds, UniformArrivals{Rate: 1}, 42)
		reqs := g.Generate(60000)
		st := Summarize(reqs)
		if !within(st.PromptAvg, c.pAvg, 0.08) {
			t.Errorf("%s prompt avg = %.1f, want %.1f ±8%%", c.ds.Name, st.PromptAvg, c.pAvg)
		}
		if !within(st.PromptMedian, c.pMed, 0.05) {
			t.Errorf("%s prompt median = %.1f, want %.1f ±5%%", c.ds.Name, st.PromptMedian, c.pMed)
		}
		if !within(st.PromptP90, c.pP90, 0.05) {
			t.Errorf("%s prompt P90 = %.1f, want %.1f ±5%%", c.ds.Name, st.PromptP90, c.pP90)
		}
		if !within(st.OutputAvg, c.oAvg, 0.12) {
			t.Errorf("%s output avg = %.1f, want %.1f ±12%%", c.ds.Name, st.OutputAvg, c.oAvg)
		}
		if math.Abs(st.OutputMedian-c.oMed) > math.Max(0.06*c.oMed, 2) {
			t.Errorf("%s output median = %.1f, want %.1f", c.ds.Name, st.OutputMedian, c.oMed)
		}
		if !within(st.OutputP90, c.oP90, 0.08) {
			t.Errorf("%s output P90 = %.1f, want %.1f ±8%%", c.ds.Name, st.OutputP90, c.oP90)
		}
	}
}

func TestExpectedMeanCloseToTable2(t *testing.T) {
	if m := ShareGPT().Prompt.ExpectedMean(); !within(m, 768.2, 0.08) {
		t.Errorf("ShareGPT prompt analytic mean = %.1f", m)
	}
	if m := LongBench().Prompt.ExpectedMean(); !within(m, 2890.4, 0.05) {
		t.Errorf("LongBench prompt analytic mean = %.1f", m)
	}
	if m := LongBench().Output.ExpectedMean(); !within(m, 97.4, 0.12) {
		t.Errorf("LongBench output analytic mean = %.1f", m)
	}
}

func TestContextCap(t *testing.T) {
	g := NewGenerator(ShareGPT(), PoissonArrivals{Rate: 10}, 7)
	for _, r := range g.Generate(20000) {
		if r.TotalTokens() > 2048 {
			t.Fatalf("request %d exceeds context: %d+%d", r.ID, r.PromptTokens, r.OutputTokens)
		}
		if r.PromptTokens < 1 || r.OutputTokens < 1 {
			t.Fatalf("request %d has empty prompt/output", r.ID)
		}
	}
}

func TestPoissonRate(t *testing.T) {
	g := NewGenerator(Fixed(100, 10, 2048), PoissonArrivals{Rate: 8}, 3)
	reqs := g.Generate(40000)
	st := Summarize(reqs)
	if !within(st.RatePerSec, 8, 0.05) {
		t.Errorf("empirical rate = %.2f, want 8 ±5%%", st.RatePerSec)
	}
}

func TestUniformArrivals(t *testing.T) {
	g := NewGenerator(Fixed(100, 10, 2048), UniformArrivals{Rate: 4}, 3)
	reqs := g.Generate(100)
	for i := 1; i < len(reqs); i++ {
		gap := float64(reqs[i].Arrival - reqs[i-1].Arrival)
		if math.Abs(gap-0.25) > 1e-9 {
			t.Fatalf("gap = %v, want 0.25", gap)
		}
	}
}

func TestBurstyArrivalsKeepsMeanRate(t *testing.T) {
	b := BurstyArrivals{Rate: 5, BurstProb: 0.3, BurstFactor: 5}
	g := NewGenerator(Fixed(100, 10, 2048), b, 11)
	reqs := g.Generate(60000)
	st := Summarize(reqs)
	if !within(st.RatePerSec, 5, 0.06) {
		t.Errorf("bursty empirical rate = %.2f, want 5 ±6%%", st.RatePerSec)
	}
	// Burstiness: coefficient of variation of gaps must exceed Poisson's 1.
	var gaps []float64
	for i := 1; i < len(reqs); i++ {
		gaps = append(gaps, float64(reqs[i].Arrival-reqs[i-1].Arrival))
	}
	mean, ss := 0.0, 0.0
	for _, x := range gaps {
		mean += x
	}
	mean /= float64(len(gaps))
	for _, x := range gaps {
		ss += (x - mean) * (x - mean)
	}
	cv := math.Sqrt(ss/float64(len(gaps))) / mean
	if cv <= 1.05 {
		t.Errorf("bursty CV = %.2f, want > 1.05", cv)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(ShareGPT(), PoissonArrivals{Rate: 4}, 99).Generate(500)
	b := NewGenerator(ShareGPT(), PoissonArrivals{Rate: 4}, 99).Generate(500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := NewGenerator(ShareGPT(), PoissonArrivals{Rate: 4}, 100).Generate(500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	reqs := NewGenerator(ShareGPT(), PoissonArrivals{Rate: 4}, 5).Generate(50)
	var buf bytes.Buffer
	if err := SaveTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip lost requests: %d vs %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestLoadTraceRejectsUnsorted(t *testing.T) {
	bad := []Request{{ID: 1, Arrival: 5}, {ID: 2, Arrival: 1}}
	var buf bytes.Buffer
	if err := SaveTrace(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrace(&buf); err == nil {
		t.Fatal("unsorted trace accepted")
	}
	if _, err := LoadTrace(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.Count != 0 || st.RatePerSec != 0 {
		t.Errorf("empty summary = %+v", st)
	}
}

func TestFixedDataset(t *testing.T) {
	g := NewGenerator(Fixed(128, 32, 2048), UniformArrivals{Rate: 1}, 1)
	for _, r := range g.Generate(10) {
		if r.PromptTokens != 128 || r.OutputTokens != 32 {
			t.Fatalf("fixed dataset produced %d/%d", r.PromptTokens, r.OutputTokens)
		}
	}
}

func TestMixtureStats(t *testing.T) {
	m := Mixture(ShareGPT(), LongBench(), 0.5, 4096)
	if err := m.Prompt.Validate(); err != nil {
		t.Fatalf("mixture prompt dist invalid: %v", err)
	}
	if err := m.Output.Validate(); err != nil {
		t.Fatalf("mixture output dist invalid: %v", err)
	}
	g := NewGenerator(m, UniformArrivals{Rate: 1}, 42)
	st := Summarize(g.Generate(40000))
	// Mixture mean = weighted component means: 0.5×768.2 + 0.5×2890.4 ≈ 1829.
	if !within(st.PromptAvg, 1829, 0.08) {
		t.Errorf("mixture prompt avg = %.1f, want ~1829", st.PromptAvg)
	}
	// The mixture must be bimodal-ish: a ShareGPT-scale 25th percentile
	// and a LongBench-scale 90th.
	if st.PromptP90 < 3200 {
		t.Errorf("mixture P90 = %.0f, want LongBench-scale", st.PromptP90)
	}
	// Weight extremes degenerate to the components.
	pure := Mixture(ShareGPT(), LongBench(), 1, 2048)
	gp := NewGenerator(pure, UniformArrivals{Rate: 1}, 42)
	stp := Summarize(gp.Generate(30000))
	if !within(stp.PromptAvg, 768.2, 0.10) {
		t.Errorf("weight-1 mixture prompt avg = %.1f, want ShareGPT's", stp.PromptAvg)
	}
}

func TestConcat(t *testing.T) {
	a := NewGenerator(Fixed(100, 10, 2048), UniformArrivals{Rate: 2}, 1).Generate(4)
	b := NewGenerator(Fixed(200, 20, 2048), UniformArrivals{Rate: 2}, 2).Generate(3)
	out := Concat(a, b, sim.Seconds(1))
	if len(out) != 7 {
		t.Fatalf("len = %d", len(out))
	}
	for i, r := range out {
		if r.ID != uint64(i+1) {
			t.Fatalf("IDs not renumbered: %v", out)
		}
		if i > 0 && out[i].Arrival < out[i-1].Arrival {
			t.Fatalf("arrivals not ordered at %d", i)
		}
	}
	// Phase 2 starts exactly gap after phase 1's last arrival.
	if gap := out[4].Arrival.Sub(out[3].Arrival); gap != sim.Seconds(1) {
		t.Errorf("gap = %v, want 1s", gap)
	}
	// Lengths preserved per phase.
	if out[0].PromptTokens != 100 || out[4].PromptTokens != 200 {
		t.Error("phase lengths mixed up")
	}
	// Degenerate cases.
	if got := Concat(nil, b, 0); len(got) != 3 || got[0].ID != 1 {
		t.Errorf("Concat(nil, b) = %v", got)
	}
	if got := Concat(a, nil, 0); len(got) != 4 {
		t.Errorf("Concat(a, nil) = %v", got)
	}
}

func TestMixtureRejectsBadWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mixture(ShareGPT(), LongBench(), 1.5, 4096)
}

// Property: arrivals are strictly ordered and IDs sequential.
func TestPropertyTraceOrdered(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		k := int(n%100) + 2
		reqs := NewGenerator(ShareGPT(), PoissonArrivals{Rate: 4}, seed).Generate(k)
		if !sort.SliceIsSorted(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival }) {
			return false
		}
		for i, r := range reqs {
			if r.ID != uint64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: samples always fall inside the knot range.
func TestPropertySampleInRange(t *testing.T) {
	d := LongBench().Output
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := d.Sample(rng)
		if v < 1 || v > 1200 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}
