// Package sched implements WindServe's Global Scheduler — the paper's
// primary contribution (§3.2): a Profiler that characterizes each
// instance's compute capability by offline profiling and regression
// (eqs. 1–2), and a Coordinator that uses those predictions for Dynamic
// Prefill Dispatch (Algorithm 1) and Dynamic Rescheduling.
package sched

import (
	"fmt"

	"windserve/internal/perf"
	"windserve/internal/sim"
	"windserve/internal/stats"
)

// Profiler predicts iteration times from fitted curves, exactly as the
// paper's Profiler does:
//
//	T̂_prefill(N)  = a_p·N + b_p·N² + c_p   (eq. 1)
//	T̂_decode(ΣL) = a_d·ΣL + c_d            (eq. 2)
//
// The coefficients come from least-squares regression over samples taken
// from the serving engine before runtime — here, from the same cost model
// the simulated hardware runs on, so the Profiler has realistic (small
// but nonzero) prediction error on shapes it did not sample.
type Profiler struct {
	prefillCoef []float64 // c_p, a_p, b_p
	decodeCoef  []float64 // c_d, a_d
	PrefillR2   float64
	DecodeR2    float64

	// xferRate is an EWMA of observed cross-instance transfer throughput
	// (bytes/second), fed back by the serving layer from completed KV
	// copies. Unlike the compute curves it is learned online, because
	// link health changes at runtime (degradation faults, congestion);
	// Dynamic Prefill Dispatch folds the resulting transfer-time estimate
	// into its TTFT prediction so dispatch adapts to slow links.
	xferRate float64
}

// Profile builds a Profiler for one instance by measuring its cost model
// on a fixed grid: prompt sizes 64·2^k and 1.5× that up to the model's
// context, and every pairing of six decode batch sizes with six
// per-request context lengths.
func Profile(cm *perf.CostModel) (*Profiler, error) {
	maxCtx := cm.Cfg.MaxContext
	var (
		preX, preY []float64
		decX, decY []float64
	)
	for n := 64; n <= maxCtx; n *= 2 {
		for _, m := range []int{n, n + n/2} {
			if m > maxCtx {
				continue
			}
			preX = append(preX, float64(m))
			preY = append(preY, cm.PrefillTime(m).Seconds())
		}
	}
	for _, b := range []int{1, 4, 8, 16, 32, 64} {
		for _, ctx := range []int{128, 256, 512, 1024, maxCtx / 2, maxCtx} {
			sum := b * ctx
			decX = append(decX, float64(sum))
			decY = append(decY, cm.DecodeTime(b, sum).Seconds())
		}
	}
	pc, err := stats.PolyFit(preX, preY, 2)
	if err != nil {
		return nil, fmt.Errorf("sched: fitting prefill curve: %w", err)
	}
	dc, err := stats.PolyFit(decX, decY, 1)
	if err != nil {
		return nil, fmt.Errorf("sched: fitting decode curve: %w", err)
	}
	p := &Profiler{prefillCoef: pc, decodeCoef: dc}
	p.PrefillR2 = fitR2(preX, preY, pc)
	p.DecodeR2 = fitR2(decX, decY, dc)
	return p, nil
}

func fitR2(xs, ys, coef []float64) float64 {
	yhat := make([]float64, len(xs))
	for i, x := range xs {
		yhat[i] = stats.PolyEval(coef, x)
	}
	return stats.R2(ys, yhat)
}

// PredictPrefill estimates the time to prefill a cumulative count of
// prompt tokens (the paper feeds the waiting queue's total token count
// plus the new request through eq. 1).
func (p *Profiler) PredictPrefill(tokens int) sim.Duration {
	if tokens <= 0 {
		return 0
	}
	v := stats.PolyEval(p.prefillCoef, float64(tokens))
	if v < 0 {
		v = 0
	}
	return sim.Seconds(v)
}

// PredictDecode estimates one decode iteration for a batch with total
// context sumCtx (eq. 2).
func (p *Profiler) PredictDecode(sumCtx int) sim.Duration {
	v := stats.PolyEval(p.decodeCoef, float64(sumCtx))
	if v < 0 {
		v = 0
	}
	return sim.Seconds(v)
}

// ObserveTransfer folds one completed KV copy (payload size and wall
// time, including queuing) into the transfer-throughput EWMA.
func (p *Profiler) ObserveTransfer(bytes float64, d sim.Duration) {
	if bytes <= 0 || d <= 0 {
		return
	}
	rate := bytes / d.Seconds()
	if p.xferRate == 0 {
		p.xferRate = rate
		return
	}
	p.xferRate = 0.8*p.xferRate + 0.2*rate
}

// WarmStartTransfer seeds the transfer-rate estimate from the topology's
// nominal link bandwidth (bytes/second) so the very first dispatch round
// already prices transfer time instead of ignoring it. Only applies when
// no real observation has been folded in yet; after that, observed copies
// own the estimate.
func (p *Profiler) WarmStartTransfer(bytesPerSec float64) {
	if p.xferRate == 0 && bytesPerSec > 0 {
		p.xferRate = bytesPerSec
	}
}

// PredictTransfer estimates the time to move a KV payload across the
// interconnect at the observed rate. Zero until the first observation or
// warm start — with neither, the Profiler has nothing to go on, which
// matches the paper's compute-only Algorithm 1.
func (p *Profiler) PredictTransfer(bytes float64) sim.Duration {
	if bytes <= 0 || p.xferRate <= 0 {
		return 0
	}
	return sim.Seconds(bytes / p.xferRate)
}

// TransferRate returns the current observed link throughput estimate in
// bytes/second (0 before any observation).
func (p *Profiler) TransferRate() float64 { return p.xferRate }

// PrefillCoefficients returns (c_p, a_p, b_p).
func (p *Profiler) PrefillCoefficients() (c, a, b float64) {
	return p.prefillCoef[0], p.prefillCoef[1], p.prefillCoef[2]
}

// DecodeCoefficients returns (c_d, a_d).
func (p *Profiler) DecodeCoefficients() (c, a float64) {
	return p.decodeCoef[0], p.decodeCoef[1]
}

// AssistBudget computes the paper's dispatch budget: the largest prompt
// whose SBD-stream prefill keeps a reference decode iteration within the
// TPOT SLO. The paper determines this "through simulation and profiling
// before runtime" (§3.2.2); we binary-search the decode instance's cost
// model at the reference batch shape.
func AssistBudget(cm *perf.CostModel, refBatch perf.Batch, tpotSLO sim.Duration) int {
	if refBatch.DecodeReqs == 0 || cm.IterTime(refBatch) > tpotSLO {
		// Either no reference decode load (everything fits) or the SLO is
		// already blown without assists; grant the full context either way
		// — the KV slot check still gates admission at runtime.
		return cm.Cfg.MaxContext
	}
	lo, hi := 0, cm.Cfg.MaxContext
	for lo < hi {
		mid := (lo + hi + 1) / 2
		td := cm.SBDDecodeTime(refBatch, perf.PrefillOnly(mid))
		if td <= tpotSLO {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
