// Package bench regenerates every table and figure of the paper's
// evaluation (§5) plus its motivating measurements (§1–2): each ExpXxx
// function runs the necessary simulations and prints rows/series shaped
// like the paper's, returning the structured data for tests and plots.
//
// Absolute numbers differ from the paper (their testbed, our simulator);
// the reproduced quantities are the shapes: who wins, by what factor, and
// where the crossovers are. EXPERIMENTS.md records both sides.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"windserve/internal/metrics"
	"windserve/internal/model"
	"windserve/internal/par"
	"windserve/internal/serve"
	"windserve/internal/workload"
)

// Options sizes the experiment runs.
type Options struct {
	// Requests per simulation run. Larger = tighter percentiles, slower.
	Requests int
	// Seed fixes the workload RNG.
	Seed int64
	// Parallel bounds how many independent simulation runs an exhibit
	// executes concurrently; <= 0 means GOMAXPROCS (windbench -parallel).
	// Every run owns its simulator,
	// RNG, and recorder, and rows are collected in submission order, so
	// output is byte-identical at any setting.
	Parallel int
	// Stream opts every run into the bounded-memory streaming recorder
	// (serve.Config.Stream): per-class online aggregates and P² percentile
	// sketches instead of full per-request record retention. Off by
	// default, keeping the committed exhibits byte-identical.
	Stream bool
	// MaxRecords bounds per-class record retention when Stream is set;
	// <= 0 means metrics.DefaultMaxRecords.
	MaxRecords int
	// FleetRequests sizes ExpFleetChaos's runs; <= 0 means 100,000.
	FleetRequests int
	// FleetReplicas sets ExpFleetChaos's replica count; <= 0 means 16.
	FleetReplicas int
	// FleetShards, when > 0, fixes the shard count for ExpFleetChaos's
	// fleet runs and restricts ExpFleetScale's sweep to {1, FleetShards}.
	// Fleet results are byte-identical at any value (windbench -shards).
	FleetShards int
	// FleetScaleRequests sizes ExpFleetScale's runs; <= 0 means 1,000,000.
	FleetScaleRequests int
	// FleetScaleReplicas sets ExpFleetScale's replica count; <= 0 means 64.
	FleetScaleReplicas int
	// ScenarioRequests sizes ExpScenarios's runs; <= 0 means 5,000.
	ScenarioRequests int
	// ElasticRequests sizes ExpElastic's runs; <= 0 means 20,000.
	ElasticRequests int
	// Elastic additionally runs ExpFleetChaos's fleets with the default
	// elastic role-flipping policy (windbench -elastic). ExpElastic always
	// compares elastic against static splits regardless of this flag.
	Elastic bool
	// Scenario restricts ExpScenarios to one named workload scenario;
	// empty runs the whole library.
	Scenario string
	// PrefixCache restricts ExpScenarios to its prefix-caching-on
	// configurations (skipping the cache-off baselines).
	PrefixCache bool
}

// DefaultOptions returns the sizes used for the committed EXPERIMENTS.md.
func DefaultOptions() Options { return Options{Requests: 600, Seed: 42} }

func (o Options) withDefaults() Options {
	if o.Requests <= 0 {
		o.Requests = 600
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// pool returns the worker pool an exhibit fans its runs across.
func (o Options) pool() *par.Pool { return par.NewPool(o.Parallel) }

// config builds a model's default serving config with the exhibit's
// streaming policy applied — the single point where Options.Stream reaches
// the serve layer.
func (o Options) config(m model.Config) (serve.Config, error) {
	cfg, err := serve.DefaultConfig(m)
	if err != nil {
		return cfg, err
	}
	if o.Stream {
		cfg.Stream = serve.StreamPolicy{Enabled: true, MaxRecords: o.MaxRecords}
	}
	return cfg, nil
}

// scenario binds a model to its dataset and rate sweep (per-GPU req/s,
// following the paper's linear scaling rule).
type scenario struct {
	model   model.Config
	dataset workload.Dataset
	rates   []float64
}

// chatbot13B is the OPT-13B ShareGPT scenario of Fig. 10a/b (top).
func chatbot13B() scenario {
	return scenario{model: model.OPT13B, dataset: workload.ShareGPT(), rates: []float64{2, 3, 4, 5, 6}}
}

// chatbot66B is the OPT-66B ShareGPT scenario of Fig. 10a/b (bottom).
func chatbot66B() scenario {
	return scenario{model: model.OPT66B, dataset: workload.ShareGPT(), rates: []float64{0.3, 0.45, 0.6, 0.75, 0.9}}
}

// summarize13B is the LLaMA2-13B LongBench scenario of Fig. 10c/d (top).
func summarize13B() scenario {
	return scenario{model: model.LLaMA213B, dataset: workload.LongBench(), rates: []float64{0.5, 0.75, 1.0, 1.25, 1.5}}
}

// summarize70B is the LLaMA2-70B LongBench scenario of Fig. 10c/d (bottom).
func summarize70B() scenario {
	return scenario{model: model.LLaMA270B, dataset: workload.LongBench(), rates: []float64{0.1, 0.15, 0.2, 0.25, 0.3}}
}

// trace generates the scenario's request stream at a per-GPU rate. The
// dataset's context cap is tightened to the serving model's limit.
func (sc scenario) trace(perGPURate float64, cfg serve.Config, o Options) []workload.Request {
	ds := sc.dataset
	if ds.MaxContext > sc.model.MaxContext {
		ds.MaxContext = sc.model.MaxContext
	}
	gpus := float64(cfg.TotalGPUs())
	g := workload.NewGenerator(ds, workload.PoissonArrivals{Rate: perGPURate * gpus}, o.Seed)
	return g.Generate(o.Requests)
}

// Row is one (system, rate) measurement — the atom of Fig. 10/11 series.
type Row struct {
	Model   string
	Dataset string
	System  string
	Rate    float64 // per-GPU req/s
	Summary metrics.Summary
	Result  *serve.Result
}

// fanOut runs independent simulation thunks on the exhibit's pool and
// returns their results in submission order. Thunks must not share
// mutable state: each simulation run owns its simulator, RNG, and
// recorder, and anything shared (request traces, fault plans, topologies)
// is read-only for the duration.
func fanOut[R any](o Options, thunks []func() (R, error)) ([]R, error) {
	return par.Run(o.pool(), len(thunks), func(i int) (R, error) { return thunks[i]() })
}

// systemOrder fixes the deterministic row order within every sweep point.
var systemOrder = []string{"vLLM", "DistServe", "WindServe", "WindServe-no-split", "WindServe-no-resche"}

// sweepPoint is one (scenario, rate) cell of a sweep, carrying its system
// rows in canonical order once the pool has drained.
type sweepPoint struct {
	scIdx int
	sc    scenario
	rate  float64
	rows  []Row
}

// runSweep flattens (scenario × rate × system) into a single pool fan-out
// — the finest independent-run granularity a sweep has — and regroups the
// rows per (scenario, rate) point in serial nesting order, so callers
// print byte-identical output at any pool size. Traces are generated
// up front (cheap, deterministic) and shared read-only across the
// point's systems.
func runSweep(scs []scenario, o Options, systems map[string]func(serve.Config, []workload.Request) (*serve.Result, error)) ([]sweepPoint, error) {
	type job struct {
		point int
		name  string
		run   func(serve.Config, []workload.Request) (*serve.Result, error)
		cfg   serve.Config
		reqs  []workload.Request
		sc    scenario
		rate  float64
	}
	var points []sweepPoint
	var jobs []job
	for si, sc := range scs {
		for _, rate := range sc.rates {
			cfg, err := o.config(sc.model)
			if err != nil {
				return nil, err
			}
			reqs := sc.trace(rate, cfg, o)
			points = append(points, sweepPoint{scIdx: si, sc: sc, rate: rate})
			for _, name := range systemOrder {
				run, ok := systems[name]
				if !ok {
					continue
				}
				jobs = append(jobs, job{
					point: len(points) - 1, name: name, run: run,
					cfg: cfg, reqs: reqs, sc: sc, rate: rate,
				})
			}
		}
	}
	rows, err := par.Map(o.pool(), jobs, func(_ int, j job) (Row, error) {
		res, err := j.run(j.cfg, j.reqs)
		if err != nil {
			return Row{}, fmt.Errorf("bench: %s %s rate %v: %w", j.sc.model.Name, j.name, j.rate, err)
		}
		return Row{
			Model: j.sc.model.Name, Dataset: j.sc.dataset.Name, System: res.System,
			Rate: j.rate, Summary: res.Summary, Result: res,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		points[j.point].rows = append(points[j.point].rows, rows[i])
	}
	return points, nil
}

// runSystems runs the named systems on one scenario/rate and returns rows.
func runSystems(sc scenario, rate float64, o Options, systems map[string]func(serve.Config, []workload.Request) (*serve.Result, error)) ([]Row, error) {
	sc.rates = []float64{rate}
	points, err := runSweep([]scenario{sc}, o, systems)
	if err != nil {
		return nil, err
	}
	return points[0].rows, nil
}

func threeSystems() map[string]func(serve.Config, []workload.Request) (*serve.Result, error) {
	return map[string]func(serve.Config, []workload.Request) (*serve.Result, error){
		"vLLM":      serve.RunVLLM,
		"DistServe": serve.RunDistServe,
		"WindServe": serve.RunWindServe,
	}
}

// table starts an aligned writer.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func ms(d interface{ Milliseconds() float64 }) string {
	return fmt.Sprintf("%.1f", d.Milliseconds())
}

func pctStr(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
