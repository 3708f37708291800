package bench

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// small keeps unit-test experiment runs fast; the committed EXPERIMENTS.md
// uses DefaultOptions.
func small() Options { return Options{Requests: 250, Seed: 42} }

func TestExpTable1(t *testing.T) {
	var sb strings.Builder
	if err := ExpTable1(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"8NH² + 4N²H", "16BH²", "OPT-13B", "Attn", "FFN"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestExpFig1Shape(t *testing.T) {
	rows, err := ExpFig1(small(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byModel := map[string][]Fig1Row{}
	for _, r := range rows {
		byModel[r.Model] = append(byModel[r.Model], r)
	}
	for model, mr := range byModel {
		first, last := mr[0], mr[len(mr)-1]
		// Decode queuing grows with load; attainment collapses.
		if last.DistDecodeQueueP99Ms <= first.DistDecodeQueueP99Ms {
			t.Errorf("%s: decode queue p99 did not grow: %.1f → %.1f",
				model, first.DistDecodeQueueP99Ms, last.DistDecodeQueueP99Ms)
		}
		if last.DistAttainment >= first.DistAttainment {
			t.Errorf("%s: attainment did not fall: %.2f → %.2f", model, first.DistAttainment, last.DistAttainment)
		}
	}
	// Paper's Fig. 1b point: at the highest 13B loads, phase-disaggregated
	// DistServe does no better than (here: worse than) co-located vLLM.
	last13 := byModel["OPT-13B"][len(byModel["OPT-13B"])-1]
	if last13.DistAttainment > last13.VLLMAttainment+0.1 {
		t.Errorf("at saturation DistServe %.2f should not beat vLLM %.2f by much",
			last13.DistAttainment, last13.VLLMAttainment)
	}
	// Fig. 1a's swapping: the 66B decode instance must actually swap under
	// pressure.
	swaps := uint64(0)
	for _, r := range byModel["OPT-66B"] {
		swaps += r.DistSwapEvents
	}
	if swaps == 0 {
		t.Error("no KV swapping observed on OPT-66B under load")
	}
}

func TestExpFig2Shape(t *testing.T) {
	rows, err := ExpFig2(small(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's core observation: prefill instances burn compute,
		// decode instances burn bandwidth, and both leave the complementary
		// resource badly underutilized.
		if r.TensorCoreP <= r.TensorCoreD {
			t.Errorf("%s: prefill tensor util %.2f should exceed decode's %.2f", r.Model, r.TensorCoreP, r.TensorCoreD)
		}
		if r.MemBWD <= r.MemBWP {
			t.Errorf("%s: decode BW util %.2f should exceed prefill's %.2f", r.Model, r.MemBWD, r.MemBWP)
		}
		if r.TensorCoreD > 0.35 {
			t.Errorf("%s: decode tensor util %.2f should be low", r.Model, r.TensorCoreD)
		}
	}
}

func TestExpFig3Shape(t *testing.T) {
	rows, err := ExpFig3(small(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	starved, redundant := rows[0], rows[1]
	// [TP-2,TP-1]: decode is the bottleneck → decode-side delay dominates;
	// [TP-2,TP-2]: prefill queue dominates instead (Fig. 3's two bars).
	if starved.DecodeQueueP99Ms <= redundant.DecodeQueueP99Ms {
		t.Errorf("starved decode queue %.1f should exceed redundant %.1f",
			starved.DecodeQueueP99Ms, redundant.DecodeQueueP99Ms)
	}
	if redundant.PrefillQueueMeanMs <= 0 {
		t.Error("prefill queue should be non-zero at 4 req/s/GPU")
	}
}

func TestExpTable2(t *testing.T) {
	stats, err := ExpTable2(small(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats = %d", len(stats))
	}
	if stats[0].PromptAvg < 700 || stats[0].PromptAvg > 840 {
		t.Errorf("ShareGPT prompt avg = %.1f", stats[0].PromptAvg)
	}
	if stats[1].PromptMedian < 2700 || stats[1].PromptMedian > 3050 {
		t.Errorf("LongBench prompt median = %.1f", stats[1].PromptMedian)
	}
}

func TestExpFig5Shape(t *testing.T) {
	rows, err := ExpFig5(Options{Requests: 220, Seed: 42}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// For the OPT-13B scenario: attainment near thrd=0.8×SLO must beat the
	// effectively-never-dispatch setting (6×SLO) — the Fig. 5 peak.
	var at08, at6 float64
	for _, r := range rows {
		if r.Scenario == "OPT-13B/ShareGPT@4" {
			switch r.ThresholdFrac {
			case 0.8:
				at08 = r.Attainment
			case 6.0:
				at6 = r.Attainment
			}
		}
	}
	if at08 <= at6 {
		t.Errorf("attainment at 0.8xSLO (%.2f) should beat 6xSLO (%.2f)", at08, at6)
	}
}

func TestExpFig7Timelines(t *testing.T) {
	var sb strings.Builder
	chunked, sbd, err := ExpFig7(DefaultOptions(), &sb)
	if err != nil {
		t.Fatal(err)
	}
	// The chunked timeline shows hybrid/chunk passes on the main lane; the
	// SBD timeline shows a second stream lane running the prefill.
	if !strings.Contains(chunked, "chunked") {
		t.Error("chunked gantt missing lane")
	}
	if !strings.Contains(sbd, "sbd/stream2") {
		t.Errorf("SBD gantt missing second stream lane:\n%s", sbd)
	}
	if !strings.Contains(sbd, "P") {
		t.Error("SBD gantt missing prefill span")
	}
	if !strings.Contains(chunked, "H") && !strings.Contains(chunked, "c") {
		t.Errorf("chunked gantt missing hybrid/chunk spans:\n%s", chunked)
	}
}

func TestExpFig8Shape(t *testing.T) {
	rows, err := ExpFig8(DefaultOptions(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// SBD keeps decode near decode-alone (within ~25%), while the
		// regular hybrid pass inflates decode latency far more for large
		// prefills.
		if r.SBDDecodeMs > r.DecodeAloneMs*1.3 {
			t.Errorf("%s N=%d: SBD decode %.1f vs alone %.1f", r.Model, r.PrefillTokens, r.SBDDecodeMs, r.DecodeAloneMs)
		}
		if r.PrefillTokens >= 2048 && r.RegularDecodeMs < r.SBDDecodeMs*1.5 {
			t.Errorf("%s N=%d: regular decode %.1f should far exceed SBD %.1f",
				r.Model, r.PrefillTokens, r.RegularDecodeMs, r.SBDDecodeMs)
		}
		// SBD prefill pays a bounded penalty over prefill-alone.
		if r.SBDPrefillMs < r.PrefillAloneMs || r.SBDPrefillMs > r.PrefillAloneMs*1.6 {
			t.Errorf("%s N=%d: SBD prefill %.1f vs alone %.1f", r.Model, r.PrefillTokens, r.SBDPrefillMs, r.PrefillAloneMs)
		}
		// §3.4's case study: chunked prefill's total time far exceeds the
		// SBD prefill (paper's 70B example: ~2×), while its per-pass decode
		// cost stays bounded (well below the regular hybrid pass for large
		// prompts, since only one chunk rides each pass).
		if r.PrefillTokens >= 1024 {
			// The gap is ~1.2-1.3× here vs the paper's ~1.9×: our decode
			// passes are cheap relative to prefill (their backend's were
			// not), so each chunk pass adds less decode overhead.
			if r.ChunkedPrefillMs < r.SBDPrefillMs*1.15 {
				t.Errorf("%s N=%d: chunked prefill total %.1f should exceed SBD %.1f",
					r.Model, r.PrefillTokens, r.ChunkedPrefillMs, r.SBDPrefillMs)
			}
			if r.ChunkedDecodeMs >= r.RegularDecodeMs {
				t.Errorf("%s N=%d: chunked decode pass %.1f should beat regular %.1f",
					r.Model, r.PrefillTokens, r.ChunkedDecodeMs, r.RegularDecodeMs)
			}
		}
	}
}

func TestExpProfilerFidelity(t *testing.T) {
	rows, err := ExpProfiler(DefaultOptions(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PrefillR2 < 0.98 || r.DecodeR2 < 0.98 {
			t.Errorf("%s: fit R² = %.4f/%.4f", r.Model, r.PrefillR2, r.DecodeR2)
		}
		// Prediction error small enough for Algorithm 1's threshold test.
		if r.MaxPrefillErrPct > 15 || r.MaxDecodeErrPct > 15 {
			t.Errorf("%s: prediction error %.1f%%/%.1f%%", r.Model, r.MaxPrefillErrPct, r.MaxDecodeErrPct)
		}
		if r.Ap <= 0 || r.Ad <= 0 {
			t.Errorf("%s: nonpositive linear coefficients", r.Model)
		}
	}
	// GQA's smaller KV shows up as a lower decode slope than the MHA model
	// of similar scale (LLaMA2-70B vs OPT-66B).
	var ad66, ad70 float64
	for _, r := range rows {
		switch r.Model {
		case "OPT-66B":
			ad66 = r.Ad
		case "LLaMA2-70B":
			ad70 = r.Ad
		}
	}
	if ad70 >= ad66 {
		t.Errorf("GQA decode slope %.3g should undercut MHA's %.3g", ad70, ad66)
	}
}

func TestExpFig9AndTables(t *testing.T) {
	var sb strings.Builder
	if err := ExpFig9(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "8 devices") {
		t.Error("Fig 9 output missing topology")
	}
	sb.Reset()
	rows, err := ExpTable3(small(), &sb)
	if err != nil {
		t.Fatal(err)
	}
	// Every model has a runnable winner, and its line carries the paper's
	// placement, its rank among the candidates, and a winner column.
	lines := strings.Split(sb.String(), "\n")
	for i, name := range []string{"OPT-13B", "LLaMA2-13B", "OPT-66B", "LLaMA2-70B"} {
		r := rows[i]
		if r.Model != name {
			t.Fatalf("row %d is %s, want %s", i, r.Model, name)
		}
		win := r.Winners()
		if len(win) == 0 || win[0].GoodputPerGPU <= 0 {
			t.Errorf("%s: no winner with positive goodput in %v", name, r.Ranked)
			continue
		}
		_, rank, _ := r.PaperRank()
		var line string
		for _, l := range lines {
			if strings.HasPrefix(l, name+" ") {
				line = l
			}
		}
		fields := strings.Fields(line)
		if len(fields) < 10 {
			t.Errorf("%s: line %q lacks a winner column", name, line)
			continue
		}
		if got, want := strings.Join(fields[1:4], " "), r.Paper.String(); got != want {
			t.Errorf("%s: paper placement %q, want %q", name, got, want)
		}
		if got, want := strings.Join(fields[5:8], " "), fmt.Sprintf("%d of %d", rank, len(r.Ranked)); got != want {
			t.Errorf("%s: rank %q, want %q", name, got, want)
		}
		if !strings.Contains(line, win[0].Candidate.String()) {
			t.Errorf("%s: line %q misses winner %v", name, line, win[0].Candidate)
		}
	}
	sb.Reset()
	if err := ExpTable4(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OPT-13B", "GQA", "LongBench"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
}

func TestExpFig10And11EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	rows, err := ExpFig10(Options{Requests: 150, Seed: 42}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// 4 scenarios × 5 rates × 3 systems.
	if len(rows) != 60 {
		t.Fatalf("rows = %d, want 60", len(rows))
	}
	// Headline: at each scenario's top rate, WindServe's TTFT p50 beats
	// DistServe's.
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Model+r.System+string(rune(int(r.Rate*100)))] = r
	}
	for _, sc := range []scenario{chatbot13B(), chatbot66B(), summarize13B(), summarize70B()} {
		top := sc.rates[len(sc.rates)-1]
		k := string(rune(int(top * 100)))
		wind, dist := byKey[sc.model.Name+"WindServe"+k], byKey[sc.model.Name+"DistServe"+k]
		if wind.Summary.TTFTP50 >= dist.Summary.TTFTP50 {
			t.Errorf("%s@%.2f: WindServe TTFT p50 %v !< DistServe %v",
				sc.model.Name, top, wind.Summary.TTFTP50, dist.Summary.TTFTP50)
		}
		if wind.Summary.Attainment < dist.Summary.Attainment {
			t.Errorf("%s@%.2f: WindServe attainment %.2f < DistServe %.2f",
				sc.model.Name, top, wind.Summary.Attainment, dist.Summary.Attainment)
		}
	}
	// Fig 11 renders from the same rows.
	var sb strings.Builder
	if _, err := ExpFig11(Options{}, &sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "SLO attainment") {
		t.Error("Fig 11 output empty")
	}
}

func TestExpFig12Shape(t *testing.T) {
	rows, err := ExpFig12(Options{Requests: 220, Seed: 42}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At the top rate of each placement WindServe must match or beat
	// DistServe (bottleneck-awareness), and the placements must expose
	// different binding constraints for DistServe.
	find := func(pl, sys string, rate float64) Fig12Row {
		for _, r := range rows {
			if r.Placement == pl && r.System == sys && r.Rate == rate {
				return r
			}
		}
		t.Fatalf("row %s/%s/%v missing", pl, sys, rate)
		return Fig12Row{}
	}
	if w, d := find("[TP-2, TP-1]", "WindServe", 4), find("[TP-2, TP-1]", "DistServe", 4); w.Attainment < d.Attainment {
		t.Errorf("starved decode: WindServe %.2f < DistServe %.2f", w.Attainment, d.Attainment)
	}
	if w, d := find("[TP-2, TP-2]", "WindServe", 5), find("[TP-2, TP-2]", "DistServe", 5); w.Attainment <= d.Attainment {
		t.Errorf("redundant decode: WindServe %.2f <= DistServe %.2f", w.Attainment, d.Attainment)
	}
	// DistServe's binding constraint flips between placements: with a
	// starved decode instance TPOT attainment suffers relative to the
	// redundant-decode case.
	dStarved := find("[TP-2, TP-1]", "DistServe", 4)
	dRedund := find("[TP-2, TP-2]", "DistServe", 4)
	if dStarved.TPOTAttain >= dRedund.TPOTAttain {
		t.Errorf("TPOT attainment should bind under [TP-2,TP-1]: %.2f vs %.2f",
			dStarved.TPOTAttain, dRedund.TPOTAttain)
	}
}

func TestExpFig13Shape(t *testing.T) {
	rows, err := ExpFig13(Options{Requests: 250, Seed: 42}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At the top rates the full system's TPOT tail must not exceed the
	// ablated variants'.
	worst := func(study, system string) float64 {
		m := 0.0
		for _, r := range rows {
			if r.Study == study && r.System == system && r.TPOTP99Ms > m {
				m = r.TPOTP99Ms
			}
		}
		return m
	}
	if full, abl := worst("no-split", "WindServe"), worst("no-split", "WindServe-no-split"); full > abl {
		t.Errorf("no-split study: full TPOT p99 %.1f worse than ablation %.1f", full, abl)
	}
	if full, abl := worst("no-resche", "WindServe"), worst("no-resche", "WindServe-no-resche"); full > abl {
		t.Errorf("no-resche study: full TPOT p99 %.1f worse than ablation %.1f", full, abl)
	}
}
