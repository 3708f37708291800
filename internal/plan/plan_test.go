package plan

import (
	"errors"
	"slices"
	"testing"

	"windserve/internal/model"
	"windserve/internal/perf"
	"windserve/internal/workload"
)

func TestCandidatesEnumerate(t *testing.T) {
	cands := Candidates(model.OPT13B, 4, 4)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if c.GPUs() != 4 {
			t.Errorf("candidate %v uses %d GPUs, want 4", c, c.GPUs())
		}
		if seen[c.String()] {
			t.Errorf("duplicate candidate %v", c)
		}
		seen[c.String()] = true
	}
	// The paper's Table 3 pair must be among them.
	if !seen["[TP-2,PP-1 | TP-2,PP-1]"] {
		t.Errorf("paper placement missing from %v", cands)
	}
	// TP-3 style shapes must not appear (40 heads).
	for _, c := range cands {
		for _, p := range []perf.Placement{c.Prefill, c.Decode} {
			if p.TP != 1 && p.TP != 2 && p.TP != 4 {
				t.Errorf("unexpected TP %d", p.TP)
			}
		}
	}
}

func TestCandidatesRespectBudget(t *testing.T) {
	for _, budget := range []int{2, 4, 8} {
		for _, c := range Candidates(model.OPT13B, budget, 4) {
			if c.GPUs() != budget {
				t.Errorf("budget %d: candidate %v", budget, c)
			}
		}
	}
	// Odd budgets work too: one side gets the extra GPU via TP or PP.
	if got := Candidates(model.OPT13B, 3, 4); len(got) == 0 {
		t.Error("no 3-GPU candidates")
	}
}

// The exhibit's settings: 600 requests at seed 42, bisected over twice the
// top rate of OPT-13B's Fig. 10 sweep.
const (
	requests = 600
	seed     = 42
	top13B   = 12.0
)

func TestSearchRanksPaperPlacementHighly(t *testing.T) {
	// OPT-13B's winner on 4 GPUs is Table 3's balanced [TP-2 | TP-2], and
	// it wins outright: no other candidate ties it.
	var evals []Evaluation
	for _, c := range Candidates(model.OPT13B, 4, MaxGPUsPerInstance) {
		evals = append(evals, Goodput(model.OPT13B, workload.ShareGPT(), c, top13B, requests, seed))
	}
	Rank(evals)
	best := evals[0]
	if best.Err != nil {
		t.Fatalf("best candidate failed: %v", best.Err)
	}
	if got, want := best.Candidate.String(), "[TP-2,PP-1 | TP-2,PP-1]"; got != want {
		t.Errorf("winner = %s, want Table 3's %s (ranking %v)", got, want, evals)
	}
	if best.GoodputPerGPU <= evals[1].GoodputPerGPU {
		t.Errorf("winner %v ties or trails the runner-up %v", best, evals[1])
	}
}

func TestGoodputBisection(t *testing.T) {
	// The returned rate qualifies, and one resolution step above it does
	// not: the bisection kept the qualifying side and halved to the end.
	ds := workload.ShareGPT()
	step := top13B / (1 << Halvings)
	for _, c := range Candidates(model.OPT13B, 4, MaxGPUsPerInstance) {
		ev := Goodput(model.OPT13B, ds, c, top13B, requests, seed)
		if ev.Err != nil {
			t.Fatalf("%v: %v", c, ev.Err)
		}
		if ev.GoodputPerGPU <= 0 {
			t.Fatalf("%v: no qualifying rate in [0, %g]", c, top13B)
		}
		att, err := attainment(model.OPT13B, ds, c, ev.GoodputPerGPU, requests, seed)
		if err != nil {
			t.Fatal(err)
		}
		if att < Target {
			t.Errorf("%v: attainment %.3f at goodput %.4f is below %.2f", c, att, ev.GoodputPerGPU, Target)
		}
		if ev.GoodputPerGPU == top13B {
			continue
		}
		above, err := attainment(model.OPT13B, ds, c, ev.GoodputPerGPU+step, requests, seed)
		if err != nil {
			t.Fatal(err)
		}
		if above >= Target {
			t.Errorf("%v: attainment %.3f one step above goodput %.4f still meets %.2f", c, above, ev.GoodputPerGPU, Target)
		}
	}
}

func TestSearchErrors(t *testing.T) {
	// 70B on a 2-GPU budget: no candidate holds the weights, so every
	// evaluation carries an error and ranks as failed.
	cands := Candidates(model.LLaMA270B, 2, MaxGPUsPerInstance)
	if len(cands) == 0 {
		t.Fatal("no 2-GPU candidates")
	}
	for _, c := range cands {
		if ev := Goodput(model.LLaMA270B, workload.LongBench(), c, 0.6, 10, seed); ev.Err == nil {
			t.Errorf("%v: impossible budget should fail", c)
		}
	}
}

func TestRankOrdersByGoodputKeepingTies(t *testing.T) {
	c := func(tp int) Candidate {
		return Candidate{Prefill: perf.Placement{TP: tp, PP: 1}, Decode: perf.Placement{TP: 1, PP: 1}}
	}
	evals := []Evaluation{
		{Candidate: c(1), Err: errors.New("weights do not fit")},
		{Candidate: c(2), GoodputPerGPU: 0.5},
		{Candidate: c(4), GoodputPerGPU: 1},
		{Candidate: c(8), GoodputPerGPU: 0.5},
	}
	Rank(evals)
	var got []int
	for _, ev := range evals {
		got = append(got, ev.Candidate.Prefill.TP)
	}
	if want := []int{4, 2, 8, 1}; !slices.Equal(got, want) {
		t.Errorf("rank order by prefill TP = %v, want %v", got, want)
	}
}
