package bench

import (
	"fmt"
	"io"
	"math"

	"windserve/internal/fault"
	"windserve/internal/model"
	"windserve/internal/serve"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// ResilienceRow is one (system, plan) outcome of the fault-injection
// experiment.
type ResilienceRow struct {
	System     string
	Plan       string
	GoodputRPS float64
	Attainment float64
	Completed  int
	Aborted    int
	Rejected   int
	Recovered  int
	Unfinished int
}

// ExpResilience injects faults into a mid-trace serving run and compares
// how the systems degrade and recover: a decode-instance crash orphans
// every request decoding there, and the serving layer must either restore
// it from a proactive KV backup (WindServe §3.3) or re-prefill it from
// scratch (DistServe, vLLM). OPT-13B ShareGPT on a [1 prefill, 2 decode]
// deployment so a survivor exists; SLO-aware shedding keeps the overload
// after the crash bounded. A non-nil plan (windbench -faults) replaces
// the default mid-trace decode crash. (Extension — not a paper exhibit.)
func ExpResilience(o Options, w io.Writer, plan *fault.Plan) ([]ResilienceRow, error) {
	o = o.withDefaults()
	cfg, err := o.config(model.OPT13B)
	if err != nil {
		return nil, err
	}
	cfg.NumDecode = 2
	cfg.Shed = serve.ShedPolicy{MaxQueueDepth: 4 * o.Requests, TTFTDeadline: 20 * cfg.SLO.TTFT}
	sc := chatbot13B()
	const rate = 2.5
	reqs := sc.trace(rate, cfg, o)
	if plan == nil {
		// Crash decode 0 a third of the way through the arrival span and
		// never restore it: half the decode capacity is gone for good.
		at := sim.Time(math.Round(float64(reqs[len(reqs)-1].Arrival) / 3))
		plan = &fault.Plan{Seed: o.Seed, Events: []fault.Event{
			{Kind: fault.Crash, Role: fault.RoleDecode, Instance: 0, At: at},
		}}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}

	// The validated plan and trace are shared read-only across the six
	// (system × {clean, faulted}) runs fanned out on the pool.
	var thunks []func() (ResilienceRow, error)
	for _, sys := range []struct {
		name string
		run  func(serve.Config, []workload.Request) (*serve.Result, error)
	}{
		{"vLLM", serve.RunVLLM},
		{"DistServe", serve.RunDistServe},
		{"WindServe", serve.RunWindServe},
	} {
		for _, faulted := range []bool{false, true} {
			name, run, faulted := sys.name, sys.run, faulted
			thunks = append(thunks, func() (ResilienceRow, error) {
				c := cfg
				label := "none"
				if faulted {
					c.Faults = plan
					label = fmt.Sprint(plan)
				}
				res, err := run(c, reqs)
				if err != nil {
					return ResilienceRow{}, fmt.Errorf("bench: resilience %s: %w", name, err)
				}
				return ResilienceRow{
					System: res.System, Plan: label,
					GoodputRPS: res.Summary.GoodputRPS, Attainment: res.Summary.Attainment,
					Completed: res.Summary.Requests, Aborted: res.Aborted, Rejected: res.Rejected,
					Recovered: res.Recovered, Unfinished: res.Unfinished,
				}, nil
			})
		}
	}
	rows, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Fault injection (OPT-13B, ShareGPT @ %.1f req/s/GPU, [1P,2D], plan %q)\n", rate, plan.String())
	tw := table(w)
	fmt.Fprintln(tw, "system\tplan\tgoodput (rps)\tSLO\tcompleted\taborted\trejected\trecovered\tunfinished")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%s\t%d\t%d\t%d\t%d\t%d\n",
			row.System, row.Plan, row.GoodputRPS, pctStr(row.Attainment),
			row.Completed, row.Aborted, row.Rejected, row.Recovered, row.Unfinished)
	}
	return rows, tw.Flush()
}
