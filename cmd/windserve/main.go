// Command windserve runs one serving simulation and prints its report.
//
// Usage:
//
//	windserve -system windserve -model OPT-13B -dataset sharegpt -rate 4 -n 500
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"windserve"
	"windserve/internal/workload"
)

func main() {
	system := flag.String("system", "windserve", "system: vllm | distserve | windserve | windserve-no-split | windserve-no-resche")
	modelName := flag.String("model", "OPT-13B", "model: OPT-13B | OPT-66B | LLaMA2-13B | LLaMA2-70B")
	dataset := flag.String("dataset", "sharegpt", "dataset: sharegpt | longbench")
	rate := flag.Float64("rate", 4, "per-GPU request rate (req/s)")
	n := flag.Int("n", 500, "number of requests")
	seed := flag.Int64("seed", 42, "workload RNG seed")
	thrd := flag.Float64("thrd", 0, "dispatch threshold as a fraction of the TTFT SLO (0 = default 0.8)")
	verbose := flag.Bool("v", false, "print per-quantile detail")
	traceIn := flag.String("trace", "", "replay a saved JSON trace instead of generating one")
	traceOut := flag.String("save-trace", "", "write the generated trace to this JSON file")
	recordsOut := flag.String("records", "", "write per-request latency records as CSV to this file")
	flag.Parse()
	if *n < 0 {
		fatal(fmt.Errorf("-n must be >= 0, got %d", *n))
	}
	if !(*rate > 0) || math.IsInf(*rate, 0) {
		fatal(fmt.Errorf("-rate must be a positive, finite per-GPU rate, got %v", *rate))
	}

	cfg, err := windserve.NewConfig(*modelName)
	if err != nil {
		fatal(err)
	}
	if *thrd > 0 {
		cfg.Wind.ThresholdFrac = *thrd
	}
	var ds windserve.Dataset
	switch strings.ToLower(*dataset) {
	case "sharegpt":
		ds = windserve.ShareGPT()
	case "longbench":
		ds = windserve.LongBench()
	default:
		fatal(fmt.Errorf("unknown dataset %q", *dataset))
	}
	var reqs []windserve.Request
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fatal(err)
		}
		reqs, err = workload.LoadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		reqs = windserve.GenerateTrace(ds, *rate, cfg, *n, *seed)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := workload.SaveTrace(f, reqs); err != nil {
			fatal(err)
		}
		f.Close()
	}

	res, err := windserve.Run(windserve.System(strings.ToLower(*system)), cfg, reqs)
	if err != nil {
		fatal(err)
	}
	if *recordsOut != "" {
		f, err := os.Create(*recordsOut)
		if err != nil {
			fatal(err)
		}
		if err := windserve.WriteRecordsCSV(f, res.Records); err != nil {
			fatal(err)
		}
		f.Close()
	}
	fmt.Printf("%s | %s on %s @ %.2f req/s/GPU (%d requests, seed %d)\n",
		res.System, *modelName, ds.Name, *rate, len(reqs), *seed)
	fmt.Println(res)
	if *verbose {
		s := res.Summary
		fmt.Printf("  TTFT: mean=%v p50=%v p90=%v p99=%v\n", s.TTFTMean, s.TTFTP50, s.TTFTP90, s.TTFTP99)
		fmt.Printf("  TPOT: mean=%v p50=%v p90=%v p99=%v\n", s.TPOTMean, s.TPOTP50, s.TPOTP90, s.TPOTP99)
		fmt.Printf("  queues: prefill mean=%v decode mean=%v decode p99=%v\n",
			s.PrefillQueueMean, s.DecodeQueueMean, s.DecodeQueueP99)
		fmt.Printf("  throughput: %.2f req/s, %.0f tok/s\n", s.ThroughputRPS, s.TokensPerSec)
		fmt.Printf("  utilization: prefill compute %.1f%% / bw %.1f%%, decode compute %.1f%% / bw %.1f%%\n",
			100*res.PrefillComputeUtil, 100*res.PrefillBWUtil, 100*res.DecodeComputeUtil, 100*res.DecodeBWUtil)
		fmt.Printf("  scheduler: dispatched=%d rescheduled=%d backups=%d asyncXfers=%d transfers=%.2f GB swapStall=%.2fs\n",
			res.Dispatched, res.Rescheduled, res.Backups, res.AsyncXfers, res.TransferGB, res.SwapStallSec)
		fmt.Printf("  decode KV: swaps out/in %d/%d, peak blocks %d, failed allocs %d\n",
			res.DecodeKV.SwapOutEvents, res.DecodeKV.SwapInEvents, res.DecodeKV.PeakBlocks, res.DecodeKV.FailedAllocs)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "windserve:", err)
	os.Exit(1)
}
