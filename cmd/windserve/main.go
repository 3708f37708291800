// Command windserve runs one serving simulation and prints its report.
//
// Usage:
//
//	windserve -system windserve -model OPT-13B -dataset sharegpt -rate 4 -n 500
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"windserve"
	"windserve/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the simulation and writes its report to stdout. It
// returns the exit code: 2 for bad arguments, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("windserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	system := fs.String("system", "windserve", "system: vllm | distserve | windserve | windserve-no-split | windserve-no-resche")
	modelName := fs.String("model", "OPT-13B", "model: OPT-13B | OPT-66B | LLaMA2-13B | LLaMA2-70B")
	dataset := fs.String("dataset", "sharegpt", "dataset: sharegpt | longbench")
	rate := fs.Float64("rate", 4, "per-GPU request rate (req/s)")
	n := fs.Int("n", 500, "number of requests")
	seed := fs.Int64("seed", 42, "workload RNG seed")
	thrd := fs.Float64("thrd", 0, "dispatch threshold as a fraction of the TTFT SLO (0 = default 0.8)")
	verbose := fs.Bool("v", false, "print per-quantile detail")
	traceIn := fs.String("trace", "", "replay a saved JSON trace instead of generating one")
	traceOut := fs.String("save-trace", "", "write the generated trace to this JSON file")
	recordsOut := fs.String("records", "", "write per-request latency records as CSV to this file")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "windserve:", err)
		return code
	}
	if *n < 0 {
		return fail(2, fmt.Errorf("-n must be >= 0, got %d", *n))
	}
	if !(*rate > 0) || math.IsInf(*rate, 0) {
		return fail(2, fmt.Errorf("-rate must be a positive, finite per-GPU rate, got %v", *rate))
	}
	if !(*thrd >= 0) || math.IsInf(*thrd, 0) {
		return fail(2, fmt.Errorf("-thrd must be a finite fraction >= 0 (0 = default 0.8), got %v", *thrd))
	}
	var ds windserve.Dataset
	switch strings.ToLower(*dataset) {
	case "sharegpt":
		ds = windserve.ShareGPT()
	case "longbench":
		ds = windserve.LongBench()
	default:
		return fail(2, fmt.Errorf("unknown dataset %q", *dataset))
	}
	cfg, err := windserve.NewConfig(*modelName)
	if err != nil {
		return fail(2, err)
	}
	if *thrd > 0 {
		cfg.Wind.ThresholdFrac = *thrd
	}
	var reqs []windserve.Request
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			return fail(1, err)
		}
		reqs, err = workload.LoadTrace(f)
		f.Close()
		if err != nil {
			return fail(1, err)
		}
	} else {
		reqs = windserve.GenerateTrace(ds, *rate, cfg, *n, *seed)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error { return workload.SaveTrace(w, reqs) }); err != nil {
			return fail(1, err)
		}
	}

	res, err := windserve.Run(windserve.System(strings.ToLower(*system)), cfg, reqs)
	if err != nil {
		return fail(1, err)
	}
	if *recordsOut != "" {
		if err := writeFile(*recordsOut, func(w io.Writer) error { return windserve.WriteRecordsCSV(w, res.Records) }); err != nil {
			return fail(1, err)
		}
	}
	fmt.Fprintf(stdout, "%s | %s on %s @ %.2f req/s/GPU (%d requests, seed %d)\n",
		res.System, *modelName, ds.Name, *rate, len(reqs), *seed)
	fmt.Fprintln(stdout, res)
	if *verbose {
		s := res.Summary
		fmt.Fprintf(stdout, "  TTFT: mean=%v p50=%v p90=%v p99=%v\n", s.TTFTMean, s.TTFTP50, s.TTFTP90, s.TTFTP99)
		fmt.Fprintf(stdout, "  TPOT: mean=%v p50=%v p90=%v p99=%v\n", s.TPOTMean, s.TPOTP50, s.TPOTP90, s.TPOTP99)
		fmt.Fprintf(stdout, "  queues: prefill mean=%v decode mean=%v decode p99=%v\n",
			s.PrefillQueueMean, s.DecodeQueueMean, s.DecodeQueueP99)
		fmt.Fprintf(stdout, "  throughput: %.2f req/s, %.0f tok/s\n", s.ThroughputRPS, s.TokensPerSec)
		fmt.Fprintf(stdout, "  utilization: prefill compute %.1f%% / bw %.1f%%, decode compute %.1f%% / bw %.1f%%\n",
			100*res.PrefillComputeUtil, 100*res.PrefillBWUtil, 100*res.DecodeComputeUtil, 100*res.DecodeBWUtil)
		fmt.Fprintf(stdout, "  scheduler: dispatched=%d rescheduled=%d backups=%d asyncXfers=%d transfers=%.2f GB swapStall=%.2fs\n",
			res.Dispatched, res.Rescheduled, res.Backups, res.AsyncXfers, res.TransferGB, res.SwapStallSec)
		fmt.Fprintf(stdout, "  decode KV: swaps out/in %d/%d, peak blocks %d, failed allocs %d\n",
			res.DecodeKV.SwapOutEvents, res.DecodeKV.SwapInEvents, res.DecodeKV.PeakBlocks, res.DecodeKV.FailedAllocs)
	}
	return 0
}

// writeFile creates path, streams through write, and surfaces close errors
// (a full disk shows up at Close, not Write).
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
