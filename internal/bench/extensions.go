package bench

import (
	"fmt"
	"io"

	"windserve/internal/gpu"
	"windserve/internal/model"
	"windserve/internal/par"
	"windserve/internal/perf"
	"windserve/internal/serve"
	"windserve/internal/stats"
	"windserve/internal/workload"
)

// Approximate street prices used for the cost-efficiency extension
// (USD; the exact values only set the scale of the $-normalized column).
const (
	priceA800    = 15000.0
	priceRTX4090 = 1800.0
)

// HeteroRow is one deployment's outcome in the heterogeneous-cluster
// extension experiment.
type HeteroRow struct {
	Deployment  string
	Rate        float64
	Attainment  float64
	TTFTP50Ms   float64
	TPOTP99Ms   float64
	ClusterCost float64
	// GoodputPerKiloUSD is SLO-satisfying req/s per $1000 of GPUs.
	GoodputPerKiloUSD float64
}

// ExpHetero explores the paper's §7 future-work proposal: prefill is
// compute-bound and does not need NVLink or large memory, so cheap
// high-FLOPS consumer GPUs (RTX 4090) can serve as prefill instances in
// front of A800 decode instances. We compare the all-A800 deployment
// against the mixed one under WindServe at equal per-GPU request rates
// and report cost-normalized goodput. (Extension — not a paper exhibit.)
func ExpHetero(o Options, w io.Writer) ([]HeteroRow, error) {
	o = o.withDefaults()
	// Each job builds its own topology: runs never share mutable state.
	deployments := []struct {
		name string
		topo func() *gpu.Topology
		cost float64
	}{
		{
			name: "4x A800 (paper baseline)",
			topo: func() *gpu.Topology { return gpu.HomogeneousTestbed(4, gpu.A800) },
			cost: 4 * priceA800,
		},
		{
			// 4090s prefill over PCIe (no NVLink); A800 pair decodes.
			name: "2x RTX4090 prefill + 2x A800 decode",
			topo: func() *gpu.Topology { return gpu.MixedTestbed(gpu.RTX4090, 2, false, gpu.A800, 2, true) },
			cost: 2*priceRTX4090 + 2*priceA800,
		},
	}
	var thunks []func() (HeteroRow, error)
	for _, rate := range []float64{2, 3, 4} {
		for _, dep := range deployments {
			rate, dep := rate, dep
			thunks = append(thunks, func() (HeteroRow, error) {
				cfg, err := o.config(model.OPT13B)
				if err != nil {
					return HeteroRow{}, err
				}
				cfg.Topo = dep.topo()
				gpus := float64(cfg.TotalGPUs())
				g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: rate * gpus}, o.Seed)
				res, err := serve.RunWindServe(cfg, g.Generate(o.Requests))
				if err != nil {
					return HeteroRow{}, fmt.Errorf("bench: hetero %s: %w", dep.name, err)
				}
				s := res.Summary
				return HeteroRow{
					Deployment:        dep.name,
					Rate:              rate,
					Attainment:        s.Attainment,
					TTFTP50Ms:         s.TTFTP50.Milliseconds(),
					TPOTP99Ms:         s.TPOTP99.Milliseconds(),
					ClusterCost:       dep.cost,
					GoodputPerKiloUSD: s.ThroughputRPS * s.Attainment / (dep.cost / 1000),
				}, nil
			})
		}
	}
	rows, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Extension (paper §7): heterogeneous prefill hardware under WindServe (OPT-13B, ShareGPT)")
	tw := table(w)
	fmt.Fprintln(tw, "deployment\trate\tSLO\tTTFT p50 (ms)\tTPOT p99 (ms)\tcluster $\tgoodput per k$")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%s\t%.1f\t%.1f\t$%.0f\t%.3f\n",
			row.Deployment, row.Rate, pctStr(row.Attainment), row.TTFTP50Ms, row.TPOTP99Ms,
			row.ClusterCost, row.GoodputPerKiloUSD)
	}
	return rows, tw.Flush()
}

// AblationRow is one design-knob measurement.
type AblationRow struct {
	Knob       string
	Setting    string
	Attainment float64
	TPOTP99Ms  float64
	TTFTP50Ms  float64
	Extra      string
}

// ExpDesignAblations sweeps the design choices DESIGN.md calls out beyond
// the paper's own ablations: the stall-free drain threshold, the backup
// policy, and the rescheduling watermark. OPT-13B, ShareGPT at a
// memory-pressured rate. (Extension — not a paper exhibit.)
func ExpDesignAblations(o Options, w io.Writer) ([]AblationRow, error) {
	o = o.withDefaults()
	sc := chatbot13B()
	// The starved-decode allocation of Fig. 3/12 at a moderate rate: the
	// decode instance's KV runs dry, so rescheduling (and thus the drain
	// threshold, watermark and backup knobs) is the active mechanism.
	const rate = 3
	cfg, err := o.config(sc.model)
	if err != nil {
		return nil, err
	}
	cfg.DecodePlace = perf.Placement{TP: 1, PP: 1}
	reqs := sc.trace(rate, cfg, o)

	// The knob grid, in print order. Each job copies cfg before mutating,
	// so the shared base config and trace stay read-only under the pool.
	type spec struct {
		knob, setting string
		mut           func(*serve.Config)
	}
	specs := []spec{
		{"baseline", "defaults", nil},
	}
	for _, thr := range []int{16, 256, 1024} {
		thr := thr
		specs = append(specs, spec{"drain-threshold", fmt.Sprintf("%d tokens", thr), func(c *serve.Config) {
			c.Wind.Resched.DrainThresholdTokens = thr
		}})
	}
	specs = append(specs, spec{"backups", "disabled", func(c *serve.Config) {
		c.Wind.DisableBackup = true
	}})
	for _, wm := range []float64{0.02, 0.20} {
		wm := wm
		specs = append(specs, spec{"watermark", fmt.Sprintf("%.2f free", wm), func(c *serve.Config) {
			c.Wind.Resched.LowWatermark = wm
			if c.Wind.Resched.TargetFree <= wm {
				c.Wind.Resched.TargetFree = wm + 0.1
			}
		}})
	}
	for _, mc := range []int{1, 8} {
		mc := mc
		specs = append(specs, spec{"max-migrations", fmt.Sprintf("%d", mc), func(c *serve.Config) {
			c.Wind.Resched.MaxConcurrentMigrations = mc
		}})
	}

	rows, err := par.Map(o.pool(), specs, func(_ int, sp spec) (AblationRow, error) {
		c := cfg
		if sp.mut != nil {
			sp.mut(&c)
		}
		res, err := serve.RunWindServe(c, reqs)
		if err != nil {
			return AblationRow{}, err
		}
		s := res.Summary
		return AblationRow{
			Knob: sp.knob, Setting: sp.setting,
			Attainment: s.Attainment,
			TPOTP99Ms:  s.TPOTP99.Milliseconds(),
			TTFTP50Ms:  s.TTFTP50.Milliseconds(),
			Extra: fmt.Sprintf("resched=%d backups=%d swaps=%d",
				res.Rescheduled, res.Backups, res.DecodeKV.SwapOutEvents),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Design ablations (OPT-13B, ShareGPT @ 3 req/s/GPU, [TP-2,TP-1], WindServe)")
	tw := table(w)
	fmt.Fprintln(tw, "knob\tsetting\tSLO\tTTFT p50 (ms)\tTPOT p99 (ms)\tnotes")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f\t%.1f\t%s\n", row.Knob, row.Setting,
			pctStr(row.Attainment), row.TTFTP50Ms, row.TPOTP99Ms, row.Extra)
	}
	return rows, tw.Flush()
}

// VictimRow compares the victim-selection policies of §3.3.
type VictimRow struct {
	Policy      string
	Rescheduled int
	MigrationGB float64
	Attainment  float64
	TPOTP99Ms   float64
}

// ExpVictimPolicy compares WindServe's longest-context-first victim
// selection against Llumnix's shortest-first (the paper contrasts the two
// in §3.3: short victims are cheap to move but free little memory, so
// pressure recurs and total migrations grow). OPT-13B, ShareGPT, starved
// decode allocation. (Extension — not a paper exhibit.)
func ExpVictimPolicy(o Options, w io.Writer) ([]VictimRow, error) {
	o = o.withDefaults()
	cfg, err := o.config(model.OPT13B)
	if err != nil {
		return nil, err
	}
	cfg.DecodePlace = perf.Placement{TP: 1, PP: 1}
	sc := chatbot13B()
	reqs := sc.trace(3, cfg, o)
	policies := []struct {
		name  string
		short bool
	}{
		{"longest-first (WindServe)", false},
		{"shortest-first (Llumnix)", true},
	}
	rows, err := par.Map(o.pool(), policies, func(_ int, pol struct {
		name  string
		short bool
	}) (VictimRow, error) {
		c := cfg
		c.Wind.Resched.PreferShortVictims = pol.short
		res, err := serve.RunWindServe(c, reqs)
		if err != nil {
			return VictimRow{}, err
		}
		return VictimRow{
			Policy:      pol.name,
			Rescheduled: res.Rescheduled,
			MigrationGB: res.MigrationGB,
			Attainment:  res.Summary.Attainment,
			TPOTP99Ms:   res.Summary.TPOTP99.Milliseconds(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Victim selection: WindServe (longest-first) vs Llumnix-style (shortest-first)")
	fmt.Fprintln(w, "(OPT-13B, ShareGPT @ 3 req/s/GPU, [TP-2, TP-1])")
	tw := table(w)
	fmt.Fprintln(tw, "policy\tmigrations\tmigrated+backup GB\tSLO\tTPOT p99 (ms)")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%s\t%.1f\n", row.Policy, row.Rescheduled,
			row.MigrationGB, pctStr(row.Attainment), row.TPOTP99Ms)
	}
	return rows, tw.Flush()
}

// ShiftRow is one system's per-phase outcome under a load step.
type ShiftRow struct {
	System          string
	Phase1Attain    float64 // before the step (2 req/s/GPU)
	Phase2Attain    float64 // after the step (5 req/s/GPU)
	Phase2TTFTP50Ms float64
}

// ExpShift steps the request rate mid-trace (2 → 5 req/s/GPU on OPT-13B
// ShareGPT). DistServe's answer to pattern shifts is offline replanning
// with stagnation (§2.2); WindServe's dynamic scheduling absorbs the step
// online. We report per-phase SLO attainment. (Extension — not a paper
// exhibit.) The phases are split by arrival time over every completed
// record, so the runs keep every record whatever Options.Stream says.
func ExpShift(o Options, w io.Writer) ([]ShiftRow, error) {
	o = o.withDefaults()
	cfg, err := serve.DefaultConfig(model.OPT13B)
	if err != nil {
		return nil, err
	}
	gpus := float64(cfg.TotalGPUs())
	n1 := o.Requests / 2
	n2 := o.Requests - n1
	low := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: 2 * gpus}, o.Seed).Generate(n1)
	high := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: 5 * gpus}, o.Seed+1).Generate(n2)
	reqs := workload.Concat(low, high, 0)
	shiftAt := reqs[n1].Arrival

	runs := []func(serve.Config, []workload.Request) (*serve.Result, error){
		serve.RunDistServe, serve.RunWindServe,
	}
	rows, err := par.Map(o.pool(), runs, func(_ int, run func(serve.Config, []workload.Request) (*serve.Result, error)) (ShiftRow, error) {
		res, err := run(cfg, reqs)
		if err != nil {
			return ShiftRow{}, err
		}
		var p1Meet, p1N, p2Meet, p2N int
		var p2TTFT []float64
		for _, rec := range res.Records {
			meets := rec.MeetsSLO(cfg.SLO)
			if rec.Arrival < shiftAt {
				p1N++
				if meets {
					p1Meet++
				}
			} else {
				p2N++
				if meets {
					p2Meet++
				}
				p2TTFT = append(p2TTFT, rec.TTFT().Seconds())
			}
		}
		row := ShiftRow{System: res.System}
		if p1N > 0 {
			row.Phase1Attain = float64(p1Meet) / float64(p1N)
		}
		if p2N > 0 {
			row.Phase2Attain = float64(p2Meet) / float64(p2N)
			row.Phase2TTFTP50Ms = stats.PercentilesOf(p2TTFT, 50)[0] * 1e3
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Load step: 2 → 5 req/s/GPU mid-trace (OPT-13B, ShareGPT)")
	tw := table(w)
	fmt.Fprintln(tw, "system\tphase-1 SLO\tphase-2 SLO\tphase-2 TTFT p50 (ms)")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f\n", row.System,
			pctStr(row.Phase1Attain), pctStr(row.Phase2Attain), row.Phase2TTFTP50Ms)
	}
	return rows, tw.Flush()
}

// MixedRow is one system's outcome under a blended workload.
type MixedRow struct {
	System     string
	Attainment float64
	TTFTP50Ms  float64
	TPOTP99Ms  float64
}

// ExpMixed serves a 50/50 blend of chatbot (ShareGPT) and summarization
// (LongBench) lengths from one LLaMA2-13B cluster — the mixed downstream
// workload scenario that motivates disaggregation in related work
// (TetriInfer). Heterogeneous prompt lengths stress the dispatch
// threshold's token-based load signal. (Extension — not a paper exhibit.)
func ExpMixed(o Options, w io.Writer) ([]MixedRow, error) {
	o = o.withDefaults()
	cfg, err := o.config(model.LLaMA213B)
	if err != nil {
		return nil, err
	}
	ds := workload.Mixture(workload.ShareGPT(), workload.LongBench(), 0.5, cfg.Model.MaxContext)
	g := workload.NewGenerator(ds, workload.PoissonArrivals{Rate: 1.5 * float64(cfg.TotalGPUs())}, o.Seed)
	reqs := g.Generate(o.Requests)
	runs := []func(serve.Config, []workload.Request) (*serve.Result, error){
		serve.RunVLLM, serve.RunDistServe, serve.RunWindServe,
	}
	rows, err := par.Map(o.pool(), runs, func(_ int, run func(serve.Config, []workload.Request) (*serve.Result, error)) (MixedRow, error) {
		res, err := run(cfg, reqs)
		if err != nil {
			return MixedRow{}, err
		}
		return MixedRow{
			System:     res.System,
			Attainment: res.Summary.Attainment,
			TTFTP50Ms:  res.Summary.TTFTP50.Milliseconds(),
			TPOTP99Ms:  res.Summary.TPOTP99.Milliseconds(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Mixed workload: %s on LLaMA2-13B @ 1.5 req/s/GPU\n", ds.Name)
	tw := table(w)
	fmt.Fprintln(tw, "system\tSLO\tTTFT p50 (ms)\tTPOT p99 (ms)")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\n", row.System, pctStr(row.Attainment), row.TTFTP50Ms, row.TPOTP99Ms)
	}
	return rows, tw.Flush()
}

// ScaleRow is one deployment-scale point of the linear-scaling study.
type ScaleRow struct {
	Deployment string
	GPUs       int
	Rate       float64 // per GPU
	System     string
	Attainment float64
	TTFTP50Ms  float64
	Dispatched int
}

// ExpScale verifies the paper's linear scaling rule across instance
// counts and exercises multi-instance load balancing (the paper's stated
// future work, §7): the 8-GPU deployment runs 2 prefill + 2 decode
// instances and should hold per-GPU service quality close to the 4-GPU
// 1+1 deployment at equal per-GPU rates. (Extension — not a paper
// exhibit.)
func ExpScale(o Options, w io.Writer) ([]ScaleRow, error) {
	o = o.withDefaults()
	// Configs and traces per (deployment, rate) are built serially; the
	// flattened (deployment × rate × system) runs fan out on the pool.
	var thunks []func() (ScaleRow, error)
	for _, dep := range []struct {
		name   string
		np, nd int
	}{
		{"1 prefill + 1 decode (4 GPUs)", 1, 1},
		{"2 prefill + 2 decode (8 GPUs)", 2, 2},
	} {
		for _, rate := range []float64{2, 3, 4} {
			cfg, err := o.config(model.OPT13B)
			if err != nil {
				return nil, err
			}
			cfg.NumPrefill, cfg.NumDecode = dep.np, dep.nd
			g := workload.NewGenerator(workload.ShareGPT(),
				workload.PoissonArrivals{Rate: rate * float64(cfg.TotalGPUs())}, o.Seed)
			reqs := g.Generate(o.Requests)
			for _, sys := range []struct {
				name string
				run  func(serve.Config, []workload.Request) (*serve.Result, error)
			}{{"DistServe", serve.RunDistServe}, {"WindServe", serve.RunWindServe}} {
				dep, rate, cfg, reqs := dep, rate, cfg, reqs
				name, run := sys.name, sys.run
				thunks = append(thunks, func() (ScaleRow, error) {
					res, err := run(cfg, reqs)
					if err != nil {
						return ScaleRow{}, fmt.Errorf("bench: scale %s %s: %w", dep.name, name, err)
					}
					return ScaleRow{
						Deployment: dep.name, GPUs: cfg.TotalGPUs(), Rate: rate, System: res.System,
						Attainment: res.Summary.Attainment,
						TTFTP50Ms:  res.Summary.TTFTP50.Milliseconds(),
						Dispatched: res.Dispatched,
					}, nil
				})
			}
		}
	}
	rows, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Linear scaling across instance counts (OPT-13B, ShareGPT, WindServe vs DistServe)")
	tw := table(w)
	fmt.Fprintln(tw, "deployment\trate/GPU\tsystem\tSLO\tTTFT p50 (ms)\tdispatched")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%s\t%s\t%.1f\t%d\n", row.Deployment, row.Rate, row.System,
			pctStr(row.Attainment), row.TTFTP50Ms, row.Dispatched)
	}
	return rows, tw.Flush()
}

// ChunkRow is one chunk-size point of the chunked-prefill trade-off.
type ChunkRow struct {
	ChunkSize  int
	TTFTP50Ms  float64
	TPOTP99Ms  float64
	Attainment float64
}

// ExpChunkSize sweeps vLLM's chunked-prefill chunk size — the trade-off
// §3.4 describes: smaller chunks cut single-step decode cost but inflate
// prefill time (and TTFT), larger chunks do the opposite. OPT-13B,
// ShareGPT at a moderate rate. (Extension — not a paper exhibit.)
func ExpChunkSize(o Options, w io.Writer) ([]ChunkRow, error) {
	o = o.withDefaults()
	cfg, err := o.config(model.OPT13B)
	if err != nil {
		return nil, err
	}
	sc := chatbot13B()
	reqs := sc.trace(3, cfg, o)
	rows, err := par.Map(o.pool(), []int{128, 256, 512, 1024, 2048}, func(_ int, chunk int) (ChunkRow, error) {
		c := cfg
		c.ChunkSize = chunk
		res, err := serve.RunVLLM(c, reqs)
		if err != nil {
			return ChunkRow{}, err
		}
		return ChunkRow{
			ChunkSize:  chunk,
			TTFTP50Ms:  res.Summary.TTFTP50.Milliseconds(),
			TPOTP99Ms:  res.Summary.TPOTP99.Milliseconds(),
			Attainment: res.Summary.Attainment,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Chunked-prefill chunk-size trade-off (vLLM, OPT-13B, ShareGPT @ 3 req/s/GPU)")
	tw := table(w)
	fmt.Fprintln(tw, "chunk\tTTFT p50 (ms)\tTPOT p99 (ms)\tSLO")
	for _, row := range rows {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%s\n", row.ChunkSize, row.TTFTP50Ms, row.TPOTP99Ms, pctStr(row.Attainment))
	}
	return rows, tw.Flush()
}

// BurstRow is one arrival-process point of the burstiness extension.
type BurstRow struct {
	Process    string
	System     string
	Attainment float64
	TTFTP99Ms  float64
	Dispatched int
}

// ExpBurst stresses the dynamic scheduler with bursty (hyperexponential)
// arrivals at the same mean rate as the Poisson baseline: flash crowds
// pile onto the prefill queue, which is exactly the signal Dynamic
// Prefill Dispatch reacts to. (Extension — not a paper exhibit.)
func ExpBurst(o Options, w io.Writer) ([]BurstRow, error) {
	o = o.withDefaults()
	cfg, err := o.config(model.OPT13B)
	if err != nil {
		return nil, err
	}
	gpus := float64(cfg.TotalGPUs())
	const rate = 3
	// Traces per arrival process are generated serially; the flattened
	// (process × system) runs fan out on the pool.
	var thunks []func() (BurstRow, error)
	for _, proc := range []workload.ArrivalProcess{
		workload.PoissonArrivals{Rate: rate * gpus},
		workload.BurstyArrivals{Rate: rate * gpus, BurstProb: 0.3, BurstFactor: 6},
	} {
		g := workload.NewGenerator(workload.ShareGPT(), proc, o.Seed)
		reqs := g.Generate(o.Requests)
		for _, sys := range []struct {
			name string
			run  func(serve.Config, []workload.Request) (*serve.Result, error)
		}{{"DistServe", serve.RunDistServe}, {"WindServe", serve.RunWindServe}} {
			proc, reqs := proc, reqs
			name, run := sys.name, sys.run
			thunks = append(thunks, func() (BurstRow, error) {
				res, err := run(cfg, reqs)
				if err != nil {
					return BurstRow{}, fmt.Errorf("bench: burst %s: %w", name, err)
				}
				return BurstRow{
					Process:    proc.Name(),
					System:     res.System,
					Attainment: res.Summary.Attainment,
					TTFTP99Ms:  res.Summary.TTFTP99.Milliseconds(),
					Dispatched: res.Dispatched,
				}, nil
			})
		}
	}
	rows, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Burst robustness (OPT-13B, ShareGPT, mean 3 req/s/GPU)")
	tw := table(w)
	fmt.Fprintln(tw, "arrivals\tsystem\tSLO\tTTFT p99 (ms)\tdispatched")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f\t%d\n", row.Process, row.System,
			pctStr(row.Attainment), row.TTFTP99Ms, row.Dispatched)
	}
	return rows, tw.Flush()
}
