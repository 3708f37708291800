// Package plan implements simulation-based placement search: the method
// DistServe uses — and WindServe adopts (paper §5.1, "Placement
// Strategies") — to choose each instance's tensor/pipeline parallelism.
// Candidate placements are enumerated over a GPU budget, each candidate's
// per-GPU goodput is found by bisecting the request rate over simulated
// DistServe runs, and candidates are ranked by that goodput.
//
// `windbench table3` runs the search for the paper's four models and sets
// each winner next to the paper's Table 3 placement.
package plan

import (
	"fmt"
	"sort"

	"windserve/internal/model"
	"windserve/internal/perf"
	"windserve/internal/serve"
	"windserve/internal/workload"
)

const (
	// Target is the SLO attainment a rate must reach to count toward
	// goodput: DistServe's 90% of requests meeting both TTFT and TPOT.
	Target = 0.9
	// Halvings is the bisection depth: the bracket [0, top] is halved this
	// many times, so a goodput is exact to top/2^Halvings.
	Halvings = 10
	// MaxGPUsPerInstance bounds each instance: one larger than half the
	// 8-GPU testbed leaves too little for the other phase.
	MaxGPUsPerInstance = 4
)

// Candidate is one prefill/decode placement pair.
type Candidate struct {
	Prefill perf.Placement
	Decode  perf.Placement
}

// GPUs returns the candidate's total device count.
func (c Candidate) GPUs() int { return c.Prefill.GPUs() + c.Decode.GPUs() }

func (c Candidate) String() string {
	return fmt.Sprintf("[%s | %s]", c.Prefill, c.Decode)
}

// Evaluation is one candidate's simulated outcome.
type Evaluation struct {
	Candidate Candidate
	// GoodputPerGPU is the highest per-GPU request rate at which at least
	// Target of the requests meet both SLOs — the metric DistServe
	// optimizes. 0 means no rate in the bracket qualified.
	GoodputPerGPU float64
	// Err notes candidates that could not run (e.g. weights don't fit).
	Err error
}

// placements enumerates the TP×PP shapes valid for the model with at most
// maxGPUs devices.
func placements(m model.Config, maxGPUs int) []perf.Placement {
	var out []perf.Placement
	for tp := 1; tp <= maxGPUs; tp *= 2 {
		for pp := 1; tp*pp <= maxGPUs; pp *= 2 {
			p := perf.Placement{TP: tp, PP: pp}
			if p.Validate(m) == nil {
				out = append(out, p)
			}
		}
	}
	return out
}

// Candidates enumerates prefill/decode pairs that exactly use gpuBudget
// devices (the paper's linear scaling rule compares equal budgets).
func Candidates(m model.Config, gpuBudget, maxPerInstance int) []Candidate {
	var out []Candidate
	for _, pre := range placements(m, maxPerInstance) {
		for _, dec := range placements(m, maxPerInstance) {
			if pre.GPUs()+dec.GPUs() == gpuBudget {
				out = append(out, Candidate{Prefill: pre, Decode: dec})
			}
		}
	}
	return out
}

// attainment serves requests from ds at ratePerGPU under DistServe on the
// candidate's placement and returns the fraction meeting both SLOs. The
// total rate follows the candidate's GPU count — the linear scaling rule.
func attainment(m model.Config, ds workload.Dataset, c Candidate, ratePerGPU float64, requests int, seed int64) (float64, error) {
	cfg, err := serve.DefaultConfig(m)
	if err != nil {
		return 0, err
	}
	cfg.PrefillPlace, cfg.DecodePlace = c.Prefill, c.Decode
	if ds.MaxContext > m.MaxContext {
		ds.MaxContext = m.MaxContext
	}
	g := workload.NewGenerator(ds, workload.PoissonArrivals{Rate: ratePerGPU * float64(c.GPUs())}, seed)
	res, err := serve.RunDistServe(cfg, g.Generate(requests))
	if err != nil {
		return 0, err
	}
	return res.Summary.Attainment, nil
}

// Goodput bisects [0, top] for the candidate's per-GPU goodput. It
// simulates top first and returns it if it qualifies; otherwise it keeps
// a qualifying low end and a failing high end through Halvings halvings
// and returns the low end.
func Goodput(m model.Config, ds workload.Dataset, c Candidate, top float64, requests int, seed int64) Evaluation {
	ev := Evaluation{Candidate: c}
	att, err := attainment(m, ds, c, top, requests, seed)
	if err != nil {
		ev.Err = err
		return ev
	}
	if att >= Target {
		ev.GoodputPerGPU = top
		return ev
	}
	lo, hi := 0.0, top
	for i := 0; i < Halvings; i++ {
		mid := (lo + hi) / 2
		if att, err = attainment(m, ds, c, mid, requests, seed); err != nil {
			ev.Err = err
			return ev
		}
		if att >= Target {
			lo = mid
		} else {
			hi = mid
		}
	}
	ev.GoodputPerGPU = lo
	return ev
}

// Rank sorts evaluations best-first: runnable candidates by descending
// goodput, then failed ones. Exact ties keep their input order.
func Rank(evals []Evaluation) {
	sort.SliceStable(evals, func(i, j int) bool {
		a, b := evals[i], evals[j]
		if (a.Err == nil) != (b.Err == nil) {
			return a.Err == nil
		}
		return a.GoodputPerGPU > b.GoodputPerGPU
	})
}
