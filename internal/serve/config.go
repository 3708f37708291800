// Package serve wires complete serving systems out of the substrate
// packages and runs them on workload traces:
//
//   - VLLM: a co-located engine with chunked prefill (the paper's vLLM
//     v0.4.2 baseline).
//   - DistServe: static phase disaggregation — prefill instance, decode
//     instance, serial post-prefill KV transfer, no cross-instance
//     scheduling (the paper's primary baseline).
//   - WindServe: the paper's system — DistServe plus the Global Scheduler
//     (Dynamic Prefill Dispatch, Dynamic Rescheduling), asynchronous
//     overlapped KV transfer, stall-free migration with KV backups, and
//     stream-based disaggregation in the decode instance.
//
// Ablations (WindServe-no-split, WindServe-no-resche, ...) are WindServe
// with feature flags off, as in the paper's §5.4.
package serve

import (
	"fmt"
	"math"

	"windserve/internal/fault"
	"windserve/internal/gpu"
	"windserve/internal/metrics"
	"windserve/internal/model"
	"windserve/internal/perf"
	"windserve/internal/sched"
	"windserve/internal/sim"
	"windserve/internal/trace"
)

const (
	// reserveFrac is per-GPU memory held back for activations.
	reserveFrac = 0.1
	// cpuSwapTokens is per-instance host swap capacity in tokens (~256k).
	cpuSwapTokens = 1 << 18
	// kvSafetyFrac keeps this fraction of decode KV free of assists.
	kvSafetyFrac = 0.06
)

// Config describes one experiment's fixed environment.
type Config struct {
	Model  model.Config
	Topo   *gpu.Topology
	Params perf.Params
	SLO    metrics.SLO

	// PrefillPlace and DecodePlace shape the PD instances
	// (paper Table 3). VLLM replicas use the prefill shape.
	PrefillPlace perf.Placement
	DecodePlace  perf.Placement
	// NumPrefill and NumDecode deploy that many instances of each shape
	// (default 1 each, the paper's setup). Multi-instance routing — the
	// paper's stated future work — is least-loaded for WindServe and
	// round-robin for DistServe.
	NumPrefill int
	NumDecode  int

	// BlockSize is the KV block granularity (tokens).
	BlockSize int
	// MaxPrefillTokens bounds a whole-prompt prefill batch.
	MaxPrefillTokens int
	// ChunkSize is the chunked-prefill budget.
	ChunkSize int
	// MaxDecodeBatch bounds the running batch.
	MaxDecodeBatch int
	// Horizon caps the simulation after the last arrival (safety against
	// saturated systems that would otherwise drain for hours of virtual
	// time). Zero means 7200 s.
	Horizon sim.Duration

	Tracer *trace.Tracer
	// Decisions, when non-nil, collects every scheduler decision (dispatch,
	// reschedule, route) for JSONL export. Nil skips logging entirely.
	Decisions *sched.DecisionLog

	Wind WindOptions

	// Shed is the SLO-aware request lifecycle policy (admission control
	// and TTFT-deadline aborts). The zero value disables both.
	Shed ShedPolicy
	// Faults optionally injects a disturbance plan into the run; every
	// system recovers per DESIGN.md's fault model. Nil means a clean run.
	Faults *fault.Plan

	// Stream selects bounded-memory metrics for long horizons. The zero
	// value keeps the exact recorder, so default runs are byte-identical.
	Stream StreamPolicy

	// Prefix opts every KV manager in the deployment into cross-request
	// prefix caching. The zero value keeps caching off, so default runs
	// are byte-identical.
	Prefix PrefixPolicy
}

// PrefixPolicy configures cross-request prefix caching: requests carrying
// a PrefixGroup share content-identified KV blocks for their common
// prompt prefix, shrinking prefill work by the hit length. Unreferenced
// prefix blocks are reclaimed LRU under memory pressure (backup copies
// go first); Tiered additionally demotes cold blocks to host memory and
// restores them over PCIe (charged as a swap-in stall) on a later hit.
type PrefixPolicy struct {
	// Enabled turns prefix caching on for every instance's KV manager.
	Enabled bool
	// Tiered enables GPU→CPU demotion of cold prefix blocks instead of
	// dropping them outright.
	Tiered bool
}

// StreamPolicy opts a run into bounded-memory metrics: finalized records
// fold into online aggregates (P² sketches for percentiles; everything
// else exact) and only the first MaxRecords records per outcome class
// stay retained for export. Combined with a workload.Source-fed run, a
// million-request horizon holds O(instances + in-flight + MaxRecords)
// state instead of O(requests).
type StreamPolicy struct {
	// Enabled switches the runner to a StreamingRecorder.
	Enabled bool
	// MaxRecords caps retained finalized records per class
	// (metrics.DefaultMaxRecords if 0).
	MaxRecords int
}

// Recorder builds the recorder the policy selects: streaming when
// Enabled, exact otherwise.
func (p StreamPolicy) Recorder(slo metrics.SLO) *metrics.Recorder {
	if p.Enabled {
		return metrics.NewStreamingRecorder(slo, p.MaxRecords)
	}
	return metrics.NewRecorder()
}

// ShedPolicy is SLO-aware load shedding: rather than queue arrivals
// beyond any hope of meeting the TTFT SLO (and drag every other request
// down with them), the system rejects at admission and aborts requests
// whose deadline has passed — trading raw throughput for goodput.
type ShedPolicy struct {
	// MaxQueueDepth rejects an arrival when the number of requests
	// waiting for prefill across all instances is already at least this.
	// 0 disables admission control.
	MaxQueueDepth int
	// TTFTDeadline aborts a request that has not produced its first
	// token this long after arrival (a client-side timeout). 0 disables
	// deadline aborts.
	TTFTDeadline sim.Duration
}

// Admit is the one admission rule the testbed runner and the fleet router
// share, applied to an arrival rec has just recorded. It rejects (and
// records the rejection) when depth reports at least MaxQueueDepth
// waiting requests; otherwise it arms the TTFT deadline, whose timer
// calls expire if the request is still in flight without a first token,
// and reports true. Callers hold expire in a field: a method value built
// per arrival would cost an allocation each time.
func (p ShedPolicy) Admit(s *sim.Simulator, rec *metrics.Recorder, id uint64, depth func() int, expire func(uint64)) bool {
	if p.MaxQueueDepth > 0 && depth() >= p.MaxQueueDepth {
		rec.Reject(id, s.Now())
		return false
	}
	if p.TTFTDeadline > 0 {
		s.Schedule(p.TTFTDeadline, func() {
			if rec.InFlight(id) && !rec.HasFirstToken(id) {
				expire(id)
			}
		})
	}
	return true
}

// WindOptions are WindServe's policy knobs and ablation switches.
type WindOptions struct {
	// DisableSBD turns stream-based disaggregation off: dispatched
	// prefills join hybrid batches (WindServe-no-split, Fig. 13a).
	DisableSBD bool
	// DisableResched turns Dynamic Rescheduling off
	// (WindServe-no-resche, Fig. 13b).
	DisableResched bool
	// DisableDispatch turns Dynamic Prefill Dispatch off.
	DisableDispatch bool
	// DisableAsyncTransfer reverts to DistServe-style serial transfers.
	DisableAsyncTransfer bool
	// DisableBackup turns proactive KV backups off.
	DisableBackup bool

	// ThresholdFrac sets Algorithm 1's thrd = frac × TTFT SLO. The paper
	// sets the threshold "slightly below the TTFT SLO"; default 0.8.
	ThresholdFrac float64

	Resched sched.ReschedulePolicy
	Backup  sched.BackupPolicy
}

// PaperPlacement returns Table 3's placement for a model.
func PaperPlacement(m model.Config) (prefill, decode perf.Placement) {
	switch m.Name {
	case "OPT-66B", "LLaMA2-70B":
		return perf.Placement{TP: 2, PP: 2}, perf.Placement{TP: 2, PP: 2}
	default:
		return perf.Placement{TP: 2, PP: 1}, perf.Placement{TP: 2, PP: 1}
	}
}

// PaperSLO returns Table 4's SLOs for a model.
func PaperSLO(m model.Config) (metrics.SLO, error) {
	switch m.Name {
	case "OPT-13B":
		return metrics.SLO{TTFT: sim.Seconds(0.25), TPOT: sim.Seconds(0.1)}, nil
	case "OPT-66B":
		return metrics.SLO{TTFT: sim.Seconds(0.8), TPOT: sim.Seconds(0.15)}, nil
	case "LLaMA2-13B":
		return metrics.SLO{TTFT: sim.Seconds(4), TPOT: sim.Seconds(0.1)}, nil
	case "LLaMA2-70B":
		return metrics.SLO{TTFT: sim.Seconds(15), TPOT: sim.Seconds(0.5)}, nil
	default:
		return metrics.SLO{}, fmt.Errorf("serve: no paper SLO for %s", m.Name)
	}
}

// TotalGPUs returns the device count of the PD deployment (all prefill
// and decode instances) — the denominator of the linear scaling rule.
func (c Config) TotalGPUs() int {
	np, nd := c.NumPrefill, c.NumDecode
	if np <= 0 {
		np = 1
	}
	if nd <= 0 {
		nd = 1
	}
	return np*c.PrefillPlace.GPUs() + nd*c.DecodePlace.GPUs()
}

// DeriveTPOTSLO computes a TPOT SLO the way the paper does (§5.2): 4× the
// execution time of one decode iteration for a batch of 16 requests at
// the workload's average context length, running without prefill
// interference.
func DeriveTPOTSLO(cm *perf.CostModel, avgContextTokens int) sim.Duration {
	return 4 * cm.DecodeTime(16, 16*avgContextTokens)
}

// DefaultConfig builds the paper's experiment configuration for a model:
// Table 3 placements, Table 4 SLOs, the Fig. 9 testbed, and the serving
// defaults shared by every system.
func DefaultConfig(m model.Config) (Config, error) {
	slo, err := PaperSLO(m)
	if err != nil {
		return Config{}, err
	}
	pre, dec := PaperPlacement(m)
	cfg := Config{
		Model:        m,
		Topo:         gpu.PaperTestbed(),
		Params:       perf.DefaultParams(),
		SLO:          slo,
		PrefillPlace: pre,
		DecodePlace:  dec,

		BlockSize:        16,
		MaxPrefillTokens: 8192,
		ChunkSize:        512,
		MaxDecodeBatch:   256,
		Wind:             DefaultWindOptions(),
	}
	return cfg, nil
}

// DefaultWindOptions returns the paper-calibrated WindServe policies.
func DefaultWindOptions() WindOptions {
	return WindOptions{
		ThresholdFrac: 0.8,
		Resched:       sched.DefaultReschedulePolicy(),
		Backup:        sched.DefaultBackupPolicy(),
	}
}

// validate rejects configurations that fillDefaults would otherwise mask
// (a negative count or size silently becoming its default) or that would
// surface as a panic or nonsense deep inside a run. It runs before
// fillDefaults, so zero values that mean "use the default" are still
// checked for sign only — except BlockSize, whose zero value has
// historically caused the confusing kvcache construction failure this
// guards against.
func (c *Config) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"NumPrefill", c.NumPrefill},
		{"NumDecode", c.NumDecode},
		{"MaxPrefillTokens", c.MaxPrefillTokens},
		{"ChunkSize", c.ChunkSize},
		{"MaxDecodeBatch", c.MaxDecodeBatch},
		{"Stream.MaxRecords", c.Stream.MaxRecords},
		{"Shed.MaxQueueDepth", c.Shed.MaxQueueDepth},
	} {
		if f.v < 0 {
			return fmt.Errorf("serve: %s %d is negative", f.name, f.v)
		}
	}
	// Each float must lie in [0, max); the negated test also rejects NaN,
	// which fails every comparison.
	inf := math.Inf(1)
	for _, f := range []struct {
		name   string
		v, max float64
	}{
		{"Horizon", float64(c.Horizon), inf},
		{"Wind.ThresholdFrac", c.Wind.ThresholdFrac, inf},
		{"Shed.TTFTDeadline", float64(c.Shed.TTFTDeadline), inf},
	} {
		if !(f.v >= 0 && f.v < f.max) {
			return fmt.Errorf("serve: %s %g outside [0,%g)", f.name, f.v, f.max)
		}
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("serve: BlockSize %d must be positive", c.BlockSize)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		np, nd := c.NumPrefill, c.NumDecode
		if np == 0 {
			np = 1
		}
		if nd == 0 {
			nd = 1
		}
		// A single-testbed run has no replica tier, so replica-granularity
		// events (rcrash/rslow/rpart) are rejected here too.
		if err := c.Faults.ValidateTargets(np, nd, 0); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	return nil
}

func (c *Config) fillDefaults() {
	if c.NumPrefill <= 0 {
		c.NumPrefill = 1
	}
	if c.NumDecode <= 0 {
		c.NumDecode = 1
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 16
	}
	if c.MaxPrefillTokens <= 0 {
		c.MaxPrefillTokens = 8192
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 512
	}
	if c.MaxDecodeBatch <= 0 {
		c.MaxDecodeBatch = 256
	}
	if c.Horizon <= 0 {
		c.Horizon = sim.Seconds(7200)
	}
	if c.Wind.ThresholdFrac <= 0 {
		c.Wind.ThresholdFrac = 0.8
	}
	if c.Wind.Resched == (sched.ReschedulePolicy{}) {
		c.Wind.Resched = sched.DefaultReschedulePolicy()
	}
	if c.Wind.Backup == (sched.BackupPolicy{}) {
		c.Wind.Backup = sched.DefaultBackupPolicy()
	}
}
