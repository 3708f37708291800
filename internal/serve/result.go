package serve

import (
	"fmt"

	"windserve/internal/kvcache"
	"windserve/internal/metrics"
	"windserve/internal/sim"
)

// Result is what one system run produces — the row material for every
// figure in the paper's evaluation.
type Result struct {
	System   string
	Requests int
	// Unfinished counts requests still in flight when the simulation hit
	// its horizon (a saturated system).
	Unfinished int
	// Aborted counts requests terminated in flight (TTFT-deadline misses
	// and client cancellations); Rejected counts arrivals shed at
	// admission. Together with completions and Unfinished they partition
	// the trace: every request ends in exactly one of the four states.
	Aborted  int
	Rejected int
	// Recovered counts requests that survived an instance crash — orphaned
	// mid-flight and then restored from a KV backup or re-prefilled.
	Recovered int
	// LiveKVBlocks is the GPU blocks still allocated across all instances
	// when the run ended (each manager's UsedBlocks; swapped blocks in host
	// memory are not counted). Nonzero with Unfinished == 0 means a leak
	// (crash recovery failed to release something), except under prefix
	// caching, where cached blocks outlive their requests.
	LiveKVBlocks int
	Elapsed      sim.Time

	Summary metrics.Summary
	Records []*metrics.Record
	// AbortedRecords and RejectedRecords are the finalized records of
	// requests that did not complete — excluded from Summary but needed by
	// timeline export, where a truncated lifecycle is still a track.
	AbortedRecords  []*metrics.Record
	RejectedRecords []*metrics.Record

	// Per-instance allocator stats (Fig. 1a's swap counts).
	PrefillKV, DecodeKV kvcache.Stats

	// Mean utilizations over the whole run (Fig. 2). For VLLM both pairs
	// report the single co-located instance.
	PrefillComputeUtil, PrefillBWUtil float64
	DecodeComputeUtil, DecodeBWUtil   float64

	// WindServe activity counters.
	Dispatched   int     // prefills sent to the decode instance
	Rescheduled  int     // decode jobs migrated to the prefill instance
	Backups      int     // proactive KV backups taken
	AsyncXfers   int     // transfers overlapped with prefill
	TransferGB   float64 // all cross-instance traffic
	MigrationGB  float64 // decode→prefill traffic (migrations + backups)
	SwapStallSec float64 // engine time lost to swap synchronization
	// TransferRateBps is the Profiler's final link-throughput estimate
	// (bytes/second): warm-started from nominal bandwidth, then EWMA-tracked
	// over observed copies, so under a degraded link it converges below
	// nominal. WindServe only; 0 elsewhere.
	TransferRateBps float64
}

func (r *Result) String() string {
	s := r.Summary
	out := fmt.Sprintf(
		"%s: %d reqs (%d unfinished) | TTFT p50=%v p99=%v | TPOT p90=%v p99=%v | SLO %.1f%% (ttft %.1f%%, tpot %.1f%%)",
		r.System, r.Requests, r.Unfinished,
		s.TTFTP50, s.TTFTP99, s.TPOTP90, s.TPOTP99,
		100*s.Attainment, 100*s.TTFTAttainment, 100*s.TPOTAttainment)
	if r.Aborted > 0 || r.Rejected > 0 || r.Recovered > 0 {
		out += fmt.Sprintf(" | aborted %d, rejected %d, recovered %d, goodput %.2f rps",
			r.Aborted, r.Rejected, r.Recovered, s.GoodputRPS)
	}
	return out
}
