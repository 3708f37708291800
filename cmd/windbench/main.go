// Command windbench regenerates the paper's tables and figures.
//
// Usage:
//
//	windbench [-n requests] [-seed N] exhibit [exhibit ...]
//	windbench all
//
// Exhibits: table1-table4, fig1-fig13, profiler, and the ext-* extension
// studies; run with no arguments for the full list.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"windserve/internal/bench"
	"windserve/internal/fault"
	"windserve/internal/obs"
)

// main delegates to run so deferred profile writers fire before exit.
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, checks every flag and exhibit name, and only then runs
// the exhibits, writing their tables to stdout. It returns the exit code:
// 2 for bad arguments, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("windbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 600, "requests per simulation run")
	seed := fs.Int64("seed", 42, "workload RNG seed")
	parallel := fs.Int("parallel", 0, "max concurrent simulation runs per exhibit (0 = GOMAXPROCS); output is byte-identical at any setting")
	stream := fs.Bool("stream", false, "use the bounded-memory streaming recorder (P² percentile sketches instead of exact percentiles)")
	maxRecords := fs.Int("maxrecords", 0, "per-class record retention cap with -stream (0 = default 10000)")
	csvPath := fs.String("csv", "", "also write the fig10/fig11 sweep rows as CSV to this file")
	faults := fs.String("faults", "", `fault plan for ext-faults and -trace, e.g. "crash:d0@60; degrade@90x0.5+30"`)
	fleetN := fs.Int("fleet", 16, "replica count for ext-fleet-chaos")
	scenarioName := fs.String("scenario", "", "restrict ext-scenarios to one named workload scenario (chat, rag, agentic, reasoning, diurnal, mixshift)")
	prefixCache := fs.Bool("prefixcache", false, "restrict ext-scenarios to its prefix-caching-on configurations")
	elasticFlag := fs.Bool("elastic", false, "run ext-fleet-chaos's fleets with the default elastic role-flipping policy (ext-elastic always compares elastic vs static)")
	chaos := fs.String("chaos", "", `chaos plan for ext-fleet-chaos, e.g. "rcrash:r0@60+30; rslow:r1@90x8+60" (default: a crash+partition+slow+cancel schedule scaled to the run)`)
	tracePath := fs.String("trace", "", "run a traced WindServe capture and write its Chrome-trace JSON here (open at ui.perfetto.dev)")
	decisionsPath := fs.String("decisions", "", "write the traced capture's scheduler decision log here as JSONL")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation heap profile to this file on exit")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() == 0 && *tracePath == "" && *decisionsPath == "" {
		fs.Usage()
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"n", *n}, {"fleet", *fleetN}, {"parallel", *parallel}, {"maxrecords", *maxRecords}} {
		if f.v < 0 {
			fmt.Fprintf(stderr, "windbench: -%s must be >= 0, got %d\n", f.name, f.v)
			return 2
		}
	}
	o := bench.Options{Requests: *n, Seed: *seed, Parallel: *parallel,
		Stream: *stream, MaxRecords: *maxRecords}
	// ext-fleet-chaos defaults to a hundred thousand requests, and the
	// other fleet and scenario studies to their own sizes; an explicit -n
	// overrides them all.
	o.FleetRequests = 100_000
	o.FleetReplicas = *fleetN
	o.ScenarioRequests = 5_000
	o.ElasticRequests = 20_000
	o.Scenario = *scenarioName
	o.PrefixCache = *prefixCache
	o.Elastic = *elasticFlag
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "n" {
			o.FleetRequests = *n
			o.ScenarioRequests = *n
			o.ElasticRequests = *n
		}
	})

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "windbench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "windbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeFile(*memProfile, func(f *os.File) error {
				runtime.GC() // get up-to-date allocation statistics
				return pprof.Lookup("allocs").WriteTo(f, 0)
			}); err != nil {
				fmt.Fprintf(stderr, "windbench: -memprofile: %v\n", err)
			}
		}()
	}

	var plan *fault.Plan
	if *faults != "" {
		var err error
		if plan, err = fault.Parse(*faults); err != nil {
			fmt.Fprintf(stderr, "windbench: -faults: %v\n", err)
			return 2
		}
		plan.Seed = *seed
	}
	var chaosPlan *fault.Plan
	if *chaos != "" {
		var err error
		if chaosPlan, err = fault.Parse(*chaos); err != nil {
			fmt.Fprintf(stderr, "windbench: -chaos: %v\n", err)
			return 2
		}
		chaosPlan.Seed = *seed
	}

	writeCSV := func(rows []bench.Row) error {
		if *csvPath == "" {
			return nil
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return bench.WriteRowsCSV(f, rows)
	}

	exhibits := map[string]func(io.Writer) error{
		"table1":   bench.ExpTable1,
		"table2":   func(w io.Writer) error { _, err := bench.ExpTable2(o, w); return err },
		"table3":   func(w io.Writer) error { _, err := bench.ExpTable3(o, w); return err },
		"table4":   bench.ExpTable4,
		"fig1":     func(w io.Writer) error { _, err := bench.ExpFig1(o, w); return err },
		"fig2":     func(w io.Writer) error { _, err := bench.ExpFig2(o, w); return err },
		"fig3":     func(w io.Writer) error { _, err := bench.ExpFig3(o, w); return err },
		"fig5":     func(w io.Writer) error { _, err := bench.ExpFig5(o, w); return err },
		"fig7":     func(w io.Writer) error { _, _, err := bench.ExpFig7(o, w); return err },
		"fig8":     func(w io.Writer) error { _, err := bench.ExpFig8(o, w); return err },
		"fig9":     bench.ExpFig9,
		"profiler": func(w io.Writer) error { _, err := bench.ExpProfiler(o, w); return err },
		"fig10": func(w io.Writer) error {
			rows, err := bench.ExpFig10(o, w)
			if err != nil {
				return err
			}
			return writeCSV(rows)
		},
		"fig11": func(w io.Writer) error {
			rows, err := bench.ExpFig11(o, w, nil)
			if err != nil {
				return err
			}
			return writeCSV(rows)
		},
		"fig12": func(w io.Writer) error { _, err := bench.ExpFig12(o, w); return err },
		"fig13": func(w io.Writer) error { _, err := bench.ExpFig13(o, w); return err },
		// Extensions beyond the paper's exhibits.
		"ext-hetero":    func(w io.Writer) error { _, err := bench.ExpHetero(o, w); return err },
		"ext-ablations": func(w io.Writer) error { _, err := bench.ExpDesignAblations(o, w); return err },
		"ext-victim":    func(w io.Writer) error { _, err := bench.ExpVictimPolicy(o, w); return err },
		"ext-burst":     func(w io.Writer) error { _, err := bench.ExpBurst(o, w); return err },
		"ext-chunk":     func(w io.Writer) error { _, err := bench.ExpChunkSize(o, w); return err },
		"ext-scale":     func(w io.Writer) error { _, err := bench.ExpScale(o, w); return err },
		"ext-mixed":     func(w io.Writer) error { _, err := bench.ExpMixed(o, w); return err },
		"ext-shift":     func(w io.Writer) error { _, err := bench.ExpShift(o, w); return err },
		"ext-faults":    func(w io.Writer) error { _, err := bench.ExpResilience(o, w, plan); return err },
		"ext-fleet-chaos": func(w io.Writer) error {
			_, err := bench.ExpFleetChaos(o, w, chaosPlan)
			return err
		},
		"ext-scenarios": func(w io.Writer) error { _, err := bench.ExpScenarios(o, w); return err },
		"ext-elastic":   func(w io.Writer) error { _, err := bench.ExpElastic(o, w); return err },
	}

	args = fs.Args()
	if len(args) == 1 && args[0] == "all" {
		args = nil
		for k := range exhibits {
			// ext-fleet-chaos's, ext-scenarios's and ext-elastic's runtimes
			// scale with -n (defaults of a hundred thousand, five thousand
			// over a 20-run grid, and twenty thousand per split), so they
			// only run when named explicitly.
			if k == "ext-fleet-chaos" || k == "ext-scenarios" || k == "ext-elastic" {
				continue
			}
			args = append(args, k)
		}
		sort.Strings(args)
	}
	// Resolve every name before the first exhibit runs: Go's flag parsing
	// stops at the first positional argument, so a flag given after an
	// exhibit name lands here and must fail before any work is done.
	exps := make([]func(io.Writer) error, len(args))
	for i, name := range args {
		var ok bool
		if exps[i], ok = exhibits[strings.ToLower(name)]; !ok {
			fmt.Fprintf(stderr, "windbench: unknown exhibit %q (flags go before exhibit names)\n", name)
			return 2
		}
	}
	for i, name := range args {
		fmt.Fprintf(stdout, "==== %s ====\n", name)
		if err := exps[i](stdout); err != nil {
			fmt.Fprintf(stderr, "windbench: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}

	if *tracePath != "" || *decisionsPath != "" {
		fmt.Fprintln(stdout, "==== trace-capture ====")
		art, err := bench.ExpTraceCapture(o, stdout, plan)
		if err != nil {
			fmt.Fprintf(stderr, "windbench: trace capture: %v\n", err)
			return 1
		}
		if *tracePath != "" {
			if err := writeFile(*tracePath, func(f *os.File) error {
				return obs.WriteChromeTrace(f, art.Tracer, art.AllRecords())
			}); err != nil {
				fmt.Fprintf(stderr, "windbench: -trace: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote Chrome trace to %s (open at https://ui.perfetto.dev)\n", *tracePath)
		}
		if *decisionsPath != "" {
			if err := writeFile(*decisionsPath, func(f *os.File) error {
				return art.Decisions.WriteJSONL(f)
			}); err != nil {
				fmt.Fprintf(stderr, "windbench: -decisions: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %d scheduler decisions to %s\n", art.Decisions.Len(), *decisionsPath)
		}
	}
	return 0
}

// writeFile creates path, streams through write, and surfaces close errors
// (a full disk shows up at Close, not Write).
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), `windbench regenerates the WindServe paper's tables and figures.

usage: windbench [-n requests] [-seed N] exhibit [exhibit ...]
       windbench -trace out.json [-decisions out.jsonl] [-faults PLAN]

exhibits:
  table1  per-layer FLOPs/IO accounting
  table2  dataset statistics vs paper
  table3  placement strategies by simulated placement search (§5.1)
  table4  SLOs
  fig1    motivation: DistServe degradation under load
  fig2    prefill/decode instance utilization
  fig3    queuing delays across placements
  fig5    dispatch threshold sweep
  fig7    chunked-prefill vs SBD timelines
  fig8    single-pass interference microbenchmark
  fig9      testbed topology
  profiler  Global Scheduler regression fits (eqs. 1-2)
  fig10   end-to-end latency sweeps (all scenarios)
  fig11   SLO attainment sweeps
  fig12   bottleneck-awareness across allocations
  fig13   ablations (no-split, no-resche)
  all     everything above

extensions (not paper exhibits):
  ext-hetero     heterogeneous prefill hardware (paper §7 proposal)
  ext-ablations  design-knob sweeps (drain threshold, watermark, backups)
  ext-victim     longest-first (WindServe) vs shortest-first (Llumnix) migration victims
  ext-burst      bursty-arrival robustness vs Poisson at equal mean rate
  ext-chunk      vLLM chunked-prefill chunk-size trade-off
  ext-scale      linear scaling across instance counts (multi-instance routing)
  ext-mixed      blended chatbot + summarization workload on one cluster
  ext-shift      load step mid-trace (dynamic adaptation vs static planning)
  ext-faults     fault injection: crash/degrade/cancel recovery and load shedding
                 (customize the plan with -faults "crash:d0@60; cancel@90x0.2")
  ext-fleet-chaos  multi-replica fleet under seeded chaos: routing policies ×
                 {clean, chaos}, reporting goodput, SLO, failovers, wasted
                 work, and crash-recovery time (not part of "all"; size with
                 -fleet and -n, override the plan with -chaos
                 "rcrash:r0@60+30; rpart:r1@90+20")
  ext-scenarios  named workload scenarios (chat, rag, agentic, reasoning,
                 diurnal) × {prefix cache off/on} × {prefix-affinity routing
                 off/on}: goodput, TTFT, SLO, and prefix-cache hit ratio per
                 traffic class (not part of "all"; restrict with -scenario
                 and -prefixcache, size with -n)
  ext-elastic    elastic role flipping on the mixshift scenario: static
                 2P/2D, 3P/1D, and 1P/3D splits vs an elastic 2P/2D fleet
                 whose controller flips instances between prefill and
                 decode as the phase mix moves; reports goodput-at-SLO,
                 flip/migration counts, and per-run result digests
                 (not part of "all"; size with -n; -elastic additionally
                 applies the policy to ext-fleet-chaos)

flags:
`)
	fs.PrintDefaults()
}
