// Package windserve is a simulation-backed reproduction of "WindServe:
// Efficient Phase-Disaggregated LLM Serving with Stream-based Dynamic
// Scheduling" (Feng et al., ISCA 2025).
//
// It provides three complete serving systems over a deterministic
// discrete-event GPU cluster simulator —
//
//   - WindServe: phase disaggregation with a Global Scheduler (Dynamic
//     Prefill Dispatch, Dynamic Rescheduling), stall-free KV migration,
//     asynchronous KV transfer, and stream-based disaggregation;
//   - DistServe: the static phase-disaggregated baseline;
//   - vLLM: the co-located continuous-batching baseline with chunked
//     prefill —
//
// plus workload generators matched to the paper's datasets and the
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// # Quick start
//
//	cfg, _ := windserve.NewConfig("OPT-13B")
//	trace := windserve.GenerateTrace(windserve.ShareGPT(), 4.0, cfg, 500, 42)
//	res, _ := windserve.Run(windserve.SystemWindServe, cfg, trace)
//	fmt.Println(res)
//
// All simulation runs on virtual time: a multi-minute serving experiment
// completes in milliseconds and is bit-for-bit reproducible from its seed.
package windserve

import (
	"fmt"
	"io"

	"windserve/internal/metrics"
	"windserve/internal/model"
	"windserve/internal/serve"
	"windserve/internal/workload"
)

// Re-exported core types. The aliases give external users stable names
// for the configuration and result types used throughout the API.
type (
	// Config is the full experiment environment: model, topology,
	// placements, SLOs, engine parameters, and WindServe policy knobs.
	Config = serve.Config
	// Result is one run's digest: latency percentiles, SLO attainment,
	// utilization, and scheduler activity counters.
	Result = serve.Result
	// Request is one inference request of a workload trace.
	Request = workload.Request
	// Dataset is a prompt/output length distribution pair.
	Dataset = workload.Dataset
	// SLO is a TTFT/TPOT target pair.
	SLO = metrics.SLO
	// Summary holds a run's latency and attainment statistics.
	Summary = metrics.Summary
	// Record is one completed request's full latency timeline.
	Record = metrics.Record
	// ModelConfig describes a transformer architecture.
	ModelConfig = model.Config
	// Source yields a workload's requests one at a time in arrival order.
	// RunFrom pulls from it lazily, so million-request horizons never
	// materialize the trace in memory.
	Source = workload.Source
	// StreamPolicy opts a run into bounded-memory streaming metrics
	// (Config.Stream); the zero value keeps the exact recorder.
	StreamPolicy = serve.StreamPolicy
)

// System selects which serving system to simulate.
type System string

// Available systems, including the paper's §5.4 ablations.
const (
	SystemVLLM               System = "vllm"
	SystemDistServe          System = "distserve"
	SystemWindServe          System = "windserve"
	SystemWindServeNoSplit   System = "windserve-no-split"
	SystemWindServeNoResched System = "windserve-no-resche"
)

// Systems lists all selectable systems.
func Systems() []System {
	return []System{SystemVLLM, SystemDistServe, SystemWindServe,
		SystemWindServeNoSplit, SystemWindServeNoResched}
}

// Models lists the built-in model names usable with NewConfig.
func Models() []string {
	return []string{"OPT-13B", "OPT-66B", "LLaMA2-13B", "LLaMA2-70B"}
}

// NewConfig returns the paper's experiment configuration for a model
// name: Table 3 placement, Table 4 SLOs, the Fig. 9 8×A800 testbed, and
// default engine/scheduler parameters. Mutate the returned Config to
// explore other placements or policies.
func NewConfig(modelName string) (Config, error) {
	m, err := model.ByName(modelName)
	if err != nil {
		return Config{}, err
	}
	return serve.DefaultConfig(m)
}

// ShareGPT returns the chatbot workload distribution (paper Table 2).
func ShareGPT() Dataset { return workload.ShareGPT() }

// LongBench returns the summarization workload distribution (Table 2).
func LongBench() Dataset { return workload.LongBench() }

// FixedWorkload returns a degenerate dataset where every request has
// exactly the given prompt and output token counts.
func FixedWorkload(prompt, output, maxContext int) Dataset {
	return workload.Fixed(prompt, output, maxContext)
}

// MixedWorkload blends two datasets: each request draws from a with
// probability weightA, else from b — e.g. chatbot and summarization
// traffic sharing one cluster.
func MixedWorkload(a, b Dataset, weightA float64, maxContext int) Dataset {
	return workload.Mixture(a, b, weightA, maxContext)
}

// GenerateTrace produces n Poisson-arriving requests at ratePerGPU
// requests/s per GPU (the paper's linear scaling rule: the total rate is
// ratePerGPU × the config's GPU count). The dataset's context cap is
// tightened to the serving model's limit.
func GenerateTrace(ds Dataset, ratePerGPU float64, cfg Config, n int, seed int64) []Request {
	if ds.MaxContext > cfg.Model.MaxContext {
		ds.MaxContext = cfg.Model.MaxContext
	}
	gpus := float64(cfg.TotalGPUs())
	g := workload.NewGenerator(ds, workload.PoissonArrivals{Rate: ratePerGPU * gpus}, seed)
	return g.Generate(n)
}

// TraceSource is GenerateTrace's pull-based twin: it yields the same n
// requests (bit-identical for the same seed) one at a time, so arbitrarily
// long horizons run in O(1) trace memory. Combine with Config.Stream to
// bound the metrics side too.
func TraceSource(ds Dataset, ratePerGPU float64, cfg Config, n int, seed int64) Source {
	if ds.MaxContext > cfg.Model.MaxContext {
		ds.MaxContext = cfg.Model.MaxContext
	}
	gpus := float64(cfg.TotalGPUs())
	g := workload.NewGenerator(ds, workload.PoissonArrivals{Rate: ratePerGPU * gpus}, seed)
	return g.Source(n)
}

// SaveTrace writes a request trace as JSON, so the identical stream can be
// replayed against other systems or configurations.
func SaveTrace(w io.Writer, reqs []Request) error { return workload.SaveTrace(w, reqs) }

// LoadTrace reads a JSON trace written by SaveTrace.
func LoadTrace(r io.Reader) ([]Request, error) { return workload.LoadTrace(r) }

// WriteRecordsCSV dumps a run's per-request latency records as CSV, for
// CDF and scatter plots (`Result.Records` holds them).
func WriteRecordsCSV(w io.Writer, records []*Record) error {
	return metrics.WriteRecordsCSV(w, records)
}

// Run simulates serving the trace with the chosen system.
func Run(sys System, cfg Config, reqs []Request) (*Result, error) {
	return RunFrom(sys, cfg, workload.NewSliceSource(reqs))
}

// RunFrom simulates serving requests pulled lazily from src — the
// streaming counterpart of Run. With a generator-backed source
// (TraceSource) and Config.Stream enabled, memory stays O(in-flight +
// retained records) regardless of how many requests the source yields.
func RunFrom(sys System, cfg Config, src Source) (*Result, error) {
	switch sys {
	case SystemVLLM:
		return serve.RunVLLMFrom(cfg, src)
	case SystemDistServe:
		return serve.RunDistServeFrom(cfg, src)
	case SystemWindServe:
		return serve.RunWindServeFrom(cfg, src)
	case SystemWindServeNoSplit:
		cfg.Wind.DisableSBD = true
		return serve.RunWindServeFrom(cfg, src)
	case SystemWindServeNoResched:
		cfg.Wind.DisableResched = true
		return serve.RunWindServeFrom(cfg, src)
	default:
		return nil, fmt.Errorf("windserve: unknown system %q", sys)
	}
}

// Compare runs several systems on the same trace and returns results in
// the order requested.
func Compare(cfg Config, reqs []Request, systems ...System) ([]*Result, error) {
	if len(systems) == 0 {
		systems = []System{SystemVLLM, SystemDistServe, SystemWindServe}
	}
	out := make([]*Result, 0, len(systems))
	for _, s := range systems {
		res, err := Run(s, cfg, reqs)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
