package bench

import (
	"fmt"
	"io"

	"windserve/internal/engine"
	"windserve/internal/gpu"
	"windserve/internal/kvcache"
	"windserve/internal/model"
	"windserve/internal/par"
	"windserve/internal/perf"
	"windserve/internal/sched"
	"windserve/internal/serve"
	"windserve/internal/sim"
	"windserve/internal/trace"
	"windserve/internal/workload"
	"windserve/internal/xfer"
)

// ExpTable1 prints the per-layer FLOPs / IO-bytes accounting of Table 1,
// both symbolically and evaluated for OPT-13B at the paper's shapes.
func ExpTable1(w io.Writer) error {
	fmt.Fprintln(w, "Table 1: per-layer overhead of Attention and FFN (OPT family, FP16)")
	tw := table(w)
	fmt.Fprintln(tw, "Module\tPrefill FLOPs\tDecode FLOPs\tPrefill IO bytes\tDecode IO bytes")
	fmt.Fprintln(tw, "Attn\t8NH² + 4N²H\t8BH² + 4ΣLH\t8H²\t8H² + 4ΣLH")
	fmt.Fprintln(tw, "FFN\t16NH²\t16BH²\t16H²\t16H²")
	if err := tw.Flush(); err != nil {
		return err
	}
	c := model.OPT13B
	n, b, sum := 1024, 16, 16*1024
	p := c.PrefillLayerCost(n)
	d := c.DecodeLayerCost(b, sum)
	fmt.Fprintf(w, "\nEvaluated for %s (H=%d), N=%d, B=%d, ΣL=%d:\n", c.Name, c.Hidden, n, b, sum)
	tw = table(w)
	fmt.Fprintln(tw, "Module\tPrefill GFLOPs\tDecode GFLOPs\tPrefill IO MB\tDecode IO MB")
	fmt.Fprintf(tw, "Attn\t%.1f\t%.1f\t%.1f\t%.1f\n", p.AttnFLOPs/1e9, d.AttnFLOPs/1e9, p.AttnIOBytes/1e6, d.AttnIOBytes/1e6)
	fmt.Fprintf(tw, "FFN\t%.1f\t%.1f\t%.1f\t%.1f\n", p.FFNFLOPs/1e9, d.FFNFLOPs/1e9, p.FFNIOBytes/1e6, d.FFNIOBytes/1e6)
	return tw.Flush()
}

// Fig1Row is one rate point of the motivation experiment.
type Fig1Row struct {
	Model                          string
	Rate                           float64
	DistDecodeQueueP99Ms           float64
	DistSwapEvents                 uint64
	DistAttainment, VLLMAttainment float64
	DistTPOTP99Ms                  float64
}

// ExpFig1 reproduces Fig. 1: under rising load, DistServe's decode queuing
// and KV swapping degrade TPOT (1a) and its SLO attainment falls to or
// below co-located vLLM's (1b). ShareGPT workload. Both OPT models are
// shown: on OPT-13B the prefill side saturates first (queuing only), on
// OPT-66B the decode instance's KV runs dry and swapping dominates —
// together they cover both degradation modes the paper's figure shows.
func ExpFig1(o Options, w io.Writer) ([]Fig1Row, error) {
	o = o.withDefaults()
	points, err := runSweep([]scenario{chatbot13B(), chatbot66B()}, o, threeSystems())
	if err != nil {
		return nil, err
	}
	var rows []Fig1Row
	tw := table(w)
	fmt.Fprintln(w, "Fig 1: TPOT/TTFT degradation under high load (ShareGPT)")
	fmt.Fprintln(tw, "model\trate\tdist decodeQ p99 (ms)\tdist swaps\tdist TPOT p99 (ms)\tSLO dist\tSLO vllm")
	for _, pt := range points {
		var dist, vllm Row
		for _, r := range pt.rows {
			switch r.System {
			case "DistServe":
				dist = r
			case "vLLM":
				vllm = r
			}
		}
		row := Fig1Row{
			Model:                pt.sc.model.Name,
			Rate:                 pt.rate,
			DistDecodeQueueP99Ms: dist.Summary.DecodeQueueP99.Milliseconds(),
			DistSwapEvents:       dist.Result.DecodeKV.SwapOutEvents,
			DistAttainment:       dist.Summary.Attainment,
			VLLMAttainment:       vllm.Summary.Attainment,
			DistTPOTP99Ms:        dist.Summary.TPOTP99.Milliseconds(),
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%d\t%.1f\t%s\t%s\n", row.Model, pt.rate,
			row.DistDecodeQueueP99Ms, row.DistSwapEvents, row.DistTPOTP99Ms,
			pctStr(row.DistAttainment), pctStr(row.VLLMAttainment))
	}
	return rows, tw.Flush()
}

// Fig2Row holds mean utilizations for one model.
type Fig2Row struct {
	Model               string
	TensorCoreP, MemBWP float64 // prefill instance
	TensorCoreD, MemBWD float64 // decode instance
}

// ExpFig2 reproduces Fig. 2: mean tensor-core utilization of prefill
// instances vs memory-bandwidth utilization of decode instances, for
// OPT-13B and OPT-66B under DistServe.
func ExpFig2(o Options, w io.Writer) ([]Fig2Row, error) {
	o = o.withDefaults()
	var thunks []func() (Fig2Row, error)
	for _, c := range []struct {
		sc   scenario
		rate float64
	}{
		{chatbot13B(), 4},
		{chatbot66B(), 0.6},
	} {
		c := c
		thunks = append(thunks, func() (Fig2Row, error) {
			cfg, err := o.config(c.sc.model)
			if err != nil {
				return Fig2Row{}, err
			}
			res, err := serve.RunDistServe(cfg, c.sc.trace(c.rate, cfg, o))
			if err != nil {
				return Fig2Row{}, err
			}
			return Fig2Row{
				Model:       c.sc.model.Name,
				TensorCoreP: res.PrefillComputeUtil, MemBWP: res.PrefillBWUtil,
				TensorCoreD: res.DecodeComputeUtil, MemBWD: res.DecodeBWUtil,
			}, nil
		})
	}
	rows, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Fig 2: mean resource utilization of prefill vs decode instances (DistServe)")
	tw := table(w)
	fmt.Fprintln(tw, "model\tTensorCore(P)\tMemBW(P)\tTensorCore(D)\tMemBW(D)")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", row.Model,
			pctStr(row.TensorCoreP), pctStr(row.MemBWP), pctStr(row.TensorCoreD), pctStr(row.MemBWD))
	}
	return rows, tw.Flush()
}

// Fig3Row is one placement's queuing picture.
type Fig3Row struct {
	Placement                            string
	PrefillQueueMeanMs, DecodeQueueP99Ms float64
	TTFTAttain, TPOTAttain               float64
}

// ExpFig3 reproduces Fig. 3: queuing delays at 4 req/s/GPU under the
// [TP-2,TP-1] and [TP-2,TP-2] allocations — whichever side is starved
// becomes the bottleneck.
func ExpFig3(o Options, w io.Writer) ([]Fig3Row, error) {
	o = o.withDefaults()
	var thunks []func() (Fig3Row, error)
	for _, pl := range []struct {
		name   string
		decode perf.Placement
	}{
		{"[TP-2, TP-1]", perf.Placement{TP: 1, PP: 1}},
		{"[TP-2, TP-2]", perf.Placement{TP: 2, PP: 1}},
	} {
		pl := pl
		thunks = append(thunks, func() (Fig3Row, error) {
			cfg, err := o.config(model.OPT13B)
			if err != nil {
				return Fig3Row{}, err
			}
			cfg.DecodePlace = pl.decode
			gpus := float64(cfg.TotalGPUs())
			g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: 4 * gpus}, o.Seed)
			res, err := serve.RunDistServe(cfg, g.Generate(o.Requests))
			if err != nil {
				return Fig3Row{}, err
			}
			return Fig3Row{
				Placement:          pl.name,
				PrefillQueueMeanMs: res.Summary.PrefillQueueMean.Milliseconds(),
				DecodeQueueP99Ms:   res.Summary.DecodeQueueP99.Milliseconds(),
				TTFTAttain:         res.Summary.TTFTAttainment,
				TPOTAttain:         res.Summary.TPOTAttainment,
			}, nil
		})
	}
	rows, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Fig 3: queuing delays for different placements (13B, ShareGPT, 4 req/s/GPU, DistServe)")
	tw := table(w)
	fmt.Fprintln(tw, "placement\tprefill queue mean (ms)\tdecode queue p99 (ms)\tTTFT attain\tTPOT attain")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%s\t%s\n", row.Placement,
			row.PrefillQueueMeanMs, row.DecodeQueueP99Ms, pctStr(row.TTFTAttain), pctStr(row.TPOTAttain))
	}
	return rows, tw.Flush()
}

// ExpTable2 prints the synthetic datasets' statistics next to the paper's.
func ExpTable2(o Options, w io.Writer) ([]workload.TraceStats, error) {
	o = o.withDefaults()
	datasets := []workload.Dataset{workload.ShareGPT(), workload.LongBench()}
	var thunks []func() (workload.TraceStats, error)
	for _, ds := range datasets {
		ds := ds
		thunks = append(thunks, func() (workload.TraceStats, error) {
			g := workload.NewGenerator(ds, workload.UniformArrivals{Rate: 1}, o.Seed)
			return workload.Summarize(g.Generate(max(o.Requests, 20000))), nil
		})
	}
	out, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Table 2: dataset statistics (synthetic samplers vs paper)")
	tw := table(w)
	fmt.Fprintln(tw, "dataset\tprompt avg/med/P90\tpaper\toutput avg/med/P90\tpaper")
	paper := map[string][2]string{
		"ShareGPT":  {"768.2/695/1556", "195.9/87/518"},
		"LongBench": {"2890.4/2887/3792", "97.4/12/369"},
	}
	for i, ds := range datasets {
		st := out[i]
		fmt.Fprintf(tw, "%s\t%.1f/%.0f/%.0f\t%s\t%.1f/%.0f/%.0f\t%s\n", ds.Name,
			st.PromptAvg, st.PromptMedian, st.PromptP90, paper[ds.Name][0],
			st.OutputAvg, st.OutputMedian, st.OutputP90, paper[ds.Name][1])
	}
	return out, tw.Flush()
}

// Fig5Row is one threshold setting's outcome.
type Fig5Row struct {
	Scenario      string
	ThresholdFrac float64 // × TTFT SLO
	Attainment    float64
}

// ExpFig5 reproduces Fig. 5: SLO attainment across dispatch-threshold
// settings; the best threshold sits slightly below the TTFT SLO.
func ExpFig5(o Options, w io.Writer) ([]Fig5Row, error) {
	o = o.withDefaults()
	fracs := []float64{0.1, 0.3, 0.6, 0.8, 1.0, 2.0, 6.0}
	cases := []struct {
		name string
		sc   scenario
		rate float64
	}{
		{"OPT-13B/ShareGPT@4", chatbot13B(), 4},
		{"LLaMA2-13B/LongBench@1.5", summarize13B(), 1.5},
	}
	var thunks []func() (Fig5Row, error)
	for _, c := range cases {
		cfg, err := o.config(c.sc.model)
		if err != nil {
			return nil, err
		}
		reqs := c.sc.trace(c.rate, cfg, o)
		for _, f := range fracs {
			c, f := c, f
			thunks = append(thunks, func() (Fig5Row, error) {
				cf := cfg
				cf.Wind.ThresholdFrac = f
				res, err := serve.RunWindServe(cf, reqs)
				if err != nil {
					return Fig5Row{}, err
				}
				return Fig5Row{Scenario: c.name, ThresholdFrac: f, Attainment: res.Summary.Attainment}, nil
			})
		}
	}
	rows, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Fig 5: impact of dispatch threshold thrd on SLO attainment (WindServe)")
	tw := table(w)
	fmt.Fprintln(tw, "scenario\tthrd (×TTFT SLO)\tSLO attainment")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%s\n", row.Scenario, row.ThresholdFrac, pctStr(row.Attainment))
	}
	return rows, tw.Flush()
}

// ExpFig7 reproduces Fig. 7's execution timelines: the same workload —
// three decoding requests joined by one long prefill — executed with
// chunked prefill (hybrid batches) and with stream-based disaggregation.
// Returns the rendered Gantt charts (chunked, SBD).
func ExpFig7(o Options, w io.Writer) (string, string, error) {
	mk := func(sbd bool) (string, error) {
		s := sim.New()
		cm := perf.MustNew(model.OPT13B, gpu.A800, perf.Placement{TP: 2, PP: 1}, gpu.NVLinkBridge, perf.DefaultParams())
		kv := kvcache.MustNew(1<<20, 1<<20, 16)
		tr := trace.New()
		host := xfer.NewLink(s, "host", gpu.HostPCIe, xfer.DefaultEfficiency)
		name := "chunked"
		if sbd {
			name = "sbd"
		}
		ins, err := engine.NewInstance(s, engine.Config{
			Name: name, CM: cm, KV: kv, HostLink: host, Tracer: tr,
			AllowPrefill: !sbd, ChunkSize: 512, SBD: sbd,
		}, engine.Hooks{})
		if err != nil {
			return "", err
		}
		// Three requests mid-decode.
		for i := 1; i <= 3; i++ {
			r := engine.NewReq(workload.Request{ID: uint64(i), PromptTokens: 1024, OutputTokens: 64})
			r.PrefillDone = 1024
			r.SetGenerated(1)
			if err := kv.Allocate(r.KVID(), 1025); err != nil {
				return "", err
			}
			ins.AdmitDecode(r)
		}
		// A 2048-token prefill (request D) arrives shortly after.
		s.Schedule(sim.Milliseconds(30), func() {
			r := engine.NewReq(workload.Request{ID: 4, PromptTokens: 2048, OutputTokens: 8})
			if sbd {
				if err := kv.Allocate(r.KVID(), 2049); err != nil {
					panic(err)
				}
				ins.EnqueueAssist(r)
			} else {
				ins.EnqueuePrefill(r)
			}
		})
		s.Run(sim.Time(1.2))
		from, to := tr.Bounds()
		_ = from
		return tr.Gantt(0, to, 96), nil
	}
	charts, err := par.Run(o.pool(), 2, func(i int) (string, error) {
		return mk(i == 1)
	})
	if err != nil {
		return "", "", err
	}
	chunked, sbd := charts[0], charts[1]
	fmt.Fprintln(w, "Fig 7: chunked-prefill vs stream-based disaggregation timelines")
	fmt.Fprintln(w, "\n-- chunked prefill (prefill D chunks ride hybrid passes, slowing every decode) --")
	fmt.Fprint(w, chunked)
	fmt.Fprintln(w, "\n-- stream-based disaggregation (prefill D runs in stream 2; decodes continue) --")
	fmt.Fprint(w, sbd)
	return chunked, sbd, nil
}

// Fig8Row is one point of the single-pass interference microbenchmark.
type Fig8Row struct {
	Model         string
	PrefillTokens int
	// Milliseconds per pass (or, for chunked prefill, total duration).
	RegularPrefillMs, RegularDecodeMs float64 // hybrid batch: both see the pass
	SBDPrefillMs, SBDDecodeMs         float64
	ChunkedPrefillMs, ChunkedDecodeMs float64 // chunk size 512, §3.4's comparison
	DecodeAloneMs, PrefillAloneMs     float64
}

// ExpFig8 reproduces Fig. 8 and the §3.4 case study: prefill and decode
// cost under regular (hybrid) batching, chunked prefill (chunk 512), and
// stream-based disaggregation, batching 16 decode requests (ctx 2048)
// with growing prefill sizes. Chunked prefill bounds the decode pass but
// stretches the prefill across many passes (the paper's LLaMA2-70B
// example: ~2× the SBD prefill time); SBD keeps both near isolated cost.
func ExpFig8(o Options, w io.Writer) ([]Fig8Row, error) {
	cases := []struct {
		cfg   model.Config
		place perf.Placement
	}{
		{model.OPT13B, perf.Placement{TP: 2, PP: 1}},
		{model.OPT66B, perf.Placement{TP: 2, PP: 2}},
		{model.LLaMA270B, perf.Placement{TP: 2, PP: 2}},
	}
	const chunkSize = 512
	perModel, err := par.Run(o.pool(), len(cases), func(ci int) ([]Fig8Row, error) {
		c := cases[ci]
		cm := perf.MustNew(c.cfg, gpu.A800, c.place, gpu.NVLinkBridge, perf.DefaultParams())
		ctx := 2048
		if ctx > c.cfg.MaxContext {
			ctx = c.cfg.MaxContext
		}
		dec := perf.DecodeOnly(16, 16*ctx)
		var rows []Fig8Row
		for _, n := range []int{512, 1024, 2048} {
			pre := perf.PrefillOnly(n)
			hybrid := cm.IterTime(perf.Batch{Prefill: pre.Prefill, DecodeReqs: dec.DecodeReqs, DecodeSumCtx: dec.DecodeSumCtx})
			// Chunked prefill: the prompt crosses in ceil(n/chunk) hybrid
			// passes; each pass is what decode steps now cost, and the
			// prefill's total duration is their sum.
			var chunkTotal, chunkPass sim.Duration
			for done := 0; done < n; done += chunkSize {
				sz := chunkSize
				if n-done < sz {
					sz = n - done
				}
				pass := cm.IterTime(perf.Batch{
					Prefill:      []perf.PrefillSeg{{NewTokens: sz, CtxBefore: done}},
					DecodeReqs:   dec.DecodeReqs,
					DecodeSumCtx: dec.DecodeSumCtx,
				})
				chunkTotal += pass
				if pass > chunkPass {
					chunkPass = pass
				}
			}
			rows = append(rows, Fig8Row{
				Model:            c.cfg.Name,
				PrefillTokens:    n,
				DecodeAloneMs:    cm.IterTime(dec).Milliseconds(),
				PrefillAloneMs:   cm.IterTime(pre).Milliseconds(),
				RegularPrefillMs: hybrid.Milliseconds(),
				RegularDecodeMs:  hybrid.Milliseconds(),
				ChunkedPrefillMs: chunkTotal.Milliseconds(),
				ChunkedDecodeMs:  chunkPass.Milliseconds(),
				SBDPrefillMs:     cm.SBDPrefillTime(pre, dec).Milliseconds(),
				SBDDecodeMs:      cm.SBDDecodeTime(dec, pre).Milliseconds(),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	fmt.Fprintln(w, "Fig 8 + §3.4: per-pass prefill/decode cost — Regular vs chunked(512) vs SBD (16 decodes, ctx 2048)")
	tw := table(w)
	fmt.Fprintln(tw, "model\tprefill N\tdec alone\tpre alone\treg dec\treg pre\tchunk dec\tchunk pre total\tSBD dec\tSBD pre\t(ms)")
	for _, mr := range perModel {
		for _, row := range mr {
			rows = append(rows, row)
			fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t\n",
				row.Model, row.PrefillTokens, row.DecodeAloneMs, row.PrefillAloneMs,
				row.RegularDecodeMs, row.RegularPrefillMs,
				row.ChunkedDecodeMs, row.ChunkedPrefillMs,
				row.SBDDecodeMs, row.SBDPrefillMs)
		}
	}
	return rows, tw.Flush()
}

// ProfilerRow is one model's fitted Profiler summary.
type ProfilerRow struct {
	Model               string
	PrefillR2, DecodeR2 float64
	Cp, Ap, Bp          float64 // eq. 1 coefficients (seconds)
	Cd, Ad              float64 // eq. 2 coefficients (seconds)
	MaxPrefillErrPct    float64 // worst prediction error on a probe grid
	MaxDecodeErrPct     float64
}

// ExpProfiler reports the Global Scheduler's Profiler fits (§3.2.1): the
// regression coefficients of eqs. (1)–(2), their R², and the worst-case
// prediction error against the engine on shapes outside the sampling
// grid — the quantity Algorithm 1's threshold comparison depends on.
func ExpProfiler(o Options, w io.Writer) ([]ProfilerRow, error) {
	cases := []struct {
		cfg   model.Config
		place perf.Placement
	}{
		{model.OPT13B, perf.Placement{TP: 2, PP: 1}},
		{model.OPT66B, perf.Placement{TP: 2, PP: 2}},
		{model.LLaMA213B, perf.Placement{TP: 2, PP: 1}},
		{model.LLaMA270B, perf.Placement{TP: 2, PP: 2}},
	}
	rows, err := par.Run(o.pool(), len(cases), func(ci int) (ProfilerRow, error) {
		c := cases[ci]
		cm := perf.MustNew(c.cfg, gpu.A800, c.place, gpu.NVLinkBridge, perf.DefaultParams())
		prof, err := sched.Profile(cm)
		if err != nil {
			return ProfilerRow{}, err
		}
		row := ProfilerRow{Model: c.cfg.Name, PrefillR2: prof.PrefillR2, DecodeR2: prof.DecodeR2}
		row.Cp, row.Ap, row.Bp = prof.PrefillCoefficients()
		row.Cd, row.Ad = prof.DecodeCoefficients()
		// Probe off-grid shapes.
		for _, n := range []int{100, 300, 900, 1700} {
			if n > c.cfg.MaxContext {
				continue
			}
			actual := cm.PrefillTime(n).Seconds()
			errPct := 100 * absf(prof.PredictPrefill(n).Seconds()-actual) / actual
			if errPct > row.MaxPrefillErrPct {
				row.MaxPrefillErrPct = errPct
			}
		}
		for _, bc := range []struct{ b, ctx int }{{6, 700}, {20, 1100}, {40, 1500}} {
			sum := bc.b * bc.ctx
			actual := cm.DecodeTime(bc.b, sum).Seconds()
			errPct := 100 * absf(prof.PredictDecode(sum).Seconds()-actual) / actual
			if errPct > row.MaxDecodeErrPct {
				row.MaxDecodeErrPct = errPct
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Profiler fits (eqs. 1-2): T̂p = cₚ + aₚN + bₚN², T̂d = c_d + a_d·ΣL")
	tw := table(w)
	fmt.Fprintln(tw, "model\tprefill R²\tdecode R²\tmax prefill err\tmax decode err\taₚ (µs/tok)\ta_d (µs/tok)")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.1f%%\t%.1f%%\t%.2f\t%.3f\n",
			row.Model, row.PrefillR2, row.DecodeR2, row.MaxPrefillErrPct, row.MaxDecodeErrPct,
			row.Ap*1e6, row.Ad*1e6)
	}
	return rows, tw.Flush()
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ExpFig9 prints the simulated testbed topology (paper Fig. 9).
func ExpFig9(w io.Writer) error {
	fmt.Fprintln(w, "Fig 9: testbed topology")
	_, err := fmt.Fprintln(w, gpu.PaperTestbed().String())
	return err
}

// ExpTable3 prints the placement strategies per model.
func ExpTable3(w io.Writer) error {
	fmt.Fprintln(w, "Table 3: placement strategies")
	tw := table(w)
	fmt.Fprintln(tw, "model\tprefill placement\tdecode placement")
	for _, m := range []model.Config{model.OPT13B, model.LLaMA213B, model.OPT66B, model.LLaMA270B} {
		p, d := serve.PaperPlacement(m)
		fmt.Fprintf(tw, "%s\t%s\t%s\n", m.Name, p, d)
	}
	return tw.Flush()
}

// ExpTable4 prints the SLOs per model and scenario.
func ExpTable4(w io.Writer) error {
	fmt.Fprintln(w, "Table 4: SLOs")
	tw := table(w)
	fmt.Fprintln(tw, "model\tattention\tTTFT SLO\tTPOT SLO\tdataset")
	for _, c := range []struct {
		m  model.Config
		ds string
	}{
		{model.LLaMA213B, "LongBench"}, {model.LLaMA270B, "LongBench"},
		{model.OPT13B, "ShareGPT"}, {model.OPT66B, "ShareGPT"},
	} {
		slo, err := serve.PaperSLO(c.m)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%s\n", c.m.Name, c.m.Attention(), slo.TTFT, slo.TPOT, c.ds)
	}
	return tw.Flush()
}

// ExpFig10 reproduces the end-to-end latency sweeps of Fig. 10 across all
// four model/dataset scenarios and three systems; the returned rows also
// carry the attainment data for Fig. 11.
func ExpFig10(o Options, w io.Writer) ([]Row, error) {
	o = o.withDefaults()
	scs := []scenario{chatbot13B(), chatbot66B(), summarize13B(), summarize70B()}
	points, err := runSweep(scs, o, threeSystems())
	if err != nil {
		return nil, err
	}
	var all []Row
	for si, sc := range scs {
		fmt.Fprintf(w, "Fig 10: %s on %s\n", sc.model.Name, sc.dataset.Name)
		tw := table(w)
		fmt.Fprintln(tw, "rate\tsystem\tTTFT p50\tTTFT p99\tTPOT p90\tTPOT p99\t(ms)")
		for _, pt := range points {
			if pt.scIdx != si {
				continue
			}
			for _, r := range pt.rows {
				fmt.Fprintf(tw, "%.2f\t%s\t%s\t%s\t%s\t%s\t\n", pt.rate, r.System,
					ms(r.Summary.TTFTP50), ms(r.Summary.TTFTP99),
					ms(r.Summary.TPOTP90), ms(r.Summary.TPOTP99))
			}
			all = append(all, pt.rows...)
		}
		if err := tw.Flush(); err != nil {
			return nil, err
		}
		fmt.Fprintln(w)
	}
	return all, nil
}

// ExpFig11 prints the SLO attainment curves of Fig. 11 from Fig. 10 rows
// (pass nil to run the sweeps).
func ExpFig11(o Options, w io.Writer, rows []Row) ([]Row, error) {
	if rows == nil {
		var err error
		rows, err = ExpFig10(o, io.Discard)
		if err != nil {
			return nil, err
		}
	}
	fmt.Fprintln(w, "Fig 11: SLO attainment")
	tw := table(w)
	fmt.Fprintln(tw, "model\tdataset\trate\tsystem\tSLO attainment")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%s\n", r.Model, r.Dataset, r.Rate, r.System, pctStr(r.Summary.Attainment))
	}
	return rows, tw.Flush()
}

// Fig12Row is one (placement, rate, system) attainment point.
type Fig12Row struct {
	Placement  string
	Rate       float64
	System     string
	Attainment float64
	TTFTAttain float64
	TPOTAttain float64
}

// ExpFig12 reproduces Fig. 12: SLO attainment under the two resource
// allocations of Fig. 3. With a starved decode instance ([TP-2,TP-1])
// DistServe is TPOT-limited and WindServe recovers via Dynamic
// Rescheduling; with a redundant decode instance ([TP-2,TP-2]) DistServe
// is TTFT-limited and WindServe recovers via Dynamic Prefill Dispatch.
func ExpFig12(o Options, w io.Writer) ([]Fig12Row, error) {
	o = o.withDefaults()
	var thunks []func() (Fig12Row, error)
	for _, pl := range []struct {
		name   string
		decode perf.Placement
		rates  []float64
	}{
		{"[TP-2, TP-1]", perf.Placement{TP: 1, PP: 1}, []float64{2, 3, 4}},
		{"[TP-2, TP-2]", perf.Placement{TP: 2, PP: 1}, []float64{3, 4, 5}},
	} {
		for _, rate := range pl.rates {
			cfg, err := o.config(model.OPT13B)
			if err != nil {
				return nil, err
			}
			cfg.DecodePlace = pl.decode
			gpus := float64(cfg.TotalGPUs())
			g := workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: rate * gpus}, o.Seed)
			reqs := g.Generate(o.Requests)
			for _, sys := range []struct {
				name string
				run  func(serve.Config, []workload.Request) (*serve.Result, error)
			}{{"DistServe", serve.RunDistServe}, {"WindServe", serve.RunWindServe}} {
				pl, rate, name, run := pl, rate, sys.name, sys.run
				thunks = append(thunks, func() (Fig12Row, error) {
					res, err := run(cfg, reqs)
					if err != nil {
						return Fig12Row{}, fmt.Errorf("bench: fig12 %s %s: %w", pl.name, name, err)
					}
					return Fig12Row{
						Placement: pl.name, Rate: rate, System: res.System,
						Attainment: res.Summary.Attainment,
						TTFTAttain: res.Summary.TTFTAttainment,
						TPOTAttain: res.Summary.TPOTAttainment,
					}, nil
				})
			}
		}
	}
	rows, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Fig 12: SLO attainment under different allocations (OPT-13B, ShareGPT)")
	tw := table(w)
	fmt.Fprintln(tw, "placement\trate\tsystem\tSLO\tTTFT-only\tTPOT-only")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%s\t%s\t%s\t%s\n", row.Placement, row.Rate, row.System,
			pctStr(row.Attainment), pctStr(row.TTFTAttain), pctStr(row.TPOTAttain))
	}
	return rows, tw.Flush()
}

// Fig13Row is one ablation measurement.
type Fig13Row struct {
	Study                string // "no-split" or "no-resche"
	Rate                 float64
	System               string
	TTFTP99Ms, TPOTP99Ms float64
}

// ExpFig13 reproduces the §5.4 ablations: (a) WindServe-no-split on the
// LongBench-style workload — without SBD, dispatched prefills interfere
// with decoding; (b) WindServe-no-resche on ShareGPT — without Dynamic
// Rescheduling, decode memory pressure turns into queuing and swapping.
// Both serve OPT-13B, as in the paper. The no-resche study runs at the
// starved-decode allocation ([TP-2, TP-1]): with our calibration the
// paper's balanced 13B placement never exhausts decode KV (the prefill
// side saturates first), so that is where rescheduling is load-bearing.
func ExpFig13(o Options, w io.Writer) ([]Fig13Row, error) {
	o = o.withDefaults()
	studies := []struct {
		name        string
		dataset     workload.Dataset
		rates       []float64
		decodePlace perf.Placement
		variant     func(serve.Config, []workload.Request) (*serve.Result, error)
	}{
		{"no-split", workload.LongBench(), []float64{1.0, 1.5, 2.0}, perf.Placement{TP: 2, PP: 1}, serve.RunWindServeNoSplit},
		{"no-resche", workload.ShareGPT(), []float64{2, 3, 4}, perf.Placement{TP: 1, PP: 1}, serve.RunWindServeNoResched},
	}
	var thunks []func() (Fig13Row, error)
	for _, st := range studies {
		sc := scenario{model: model.OPT13B, dataset: st.dataset, rates: st.rates}
		for _, rate := range st.rates {
			cfg, err := o.config(sc.model)
			if err != nil {
				return nil, err
			}
			cfg.DecodePlace = st.decodePlace
			reqs := sc.trace(rate, cfg, o)
			for _, run := range []func(serve.Config, []workload.Request) (*serve.Result, error){
				serve.RunWindServe, st.variant,
			} {
				st, rate, run := st, rate, run
				thunks = append(thunks, func() (Fig13Row, error) {
					res, err := run(cfg, reqs)
					if err != nil {
						return Fig13Row{}, err
					}
					return Fig13Row{
						Study: st.name, Rate: rate, System: res.System,
						TTFTP99Ms: res.Summary.TTFTP99.Milliseconds(),
						TPOTP99Ms: res.Summary.TPOTP99.Milliseconds(),
					}, nil
				})
			}
		}
	}
	rows, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Fig 13: ablation studies (OPT-13B)")
	tw := table(w)
	fmt.Fprintln(tw, "study\trate\tsystem\tTTFT p99 (ms)\tTPOT p99 (ms)")
	for _, row := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%s\t%.1f\t%.1f\n", row.Study, row.Rate, row.System, row.TTFTP99Ms, row.TPOTP99Ms)
	}
	return rows, tw.Flush()
}
