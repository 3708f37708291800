package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"windserve/internal/fleet"
	"windserve/internal/kvcache"
	wsmetrics "windserve/internal/metrics"
	"windserve/internal/serve"
	"windserve/internal/shard"
	"windserve/internal/workload"
)

// rep is what one child process reports about its repetition.
type rep struct {
	Requests   int `json:"requests"`
	Completed  int `json:"completed"`
	Aborted    int `json:"aborted"`
	Rejected   int `json:"rejected"`
	Unfinished int `json:"unfinished"`

	// WallS is the wall time of the Run*From call.
	WallS float64 `json:"wall_s"`
	// SetupS, reported by set-up-only children alone, is the set-up
	// time: from the harness launching the child process to the first
	// Source.Next the simulator makes. It covers process start, package
	// initialisation, building the config and the request source, and
	// constructing the simulated system.
	SetupS float64 `json:"setup_s,omitempty"`
	// NextS is the wall time spent inside Source.Next (traced runs only).
	NextS float64 `json:"next_s,omitempty"`

	// Runtime counters over the Run*From call.
	AllocObjects uint64  `json:"alloc_objects"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	GCCycles     uint64  `json:"gc_cycles"`
	GCCPUFrac    float64 `json:"gc_cpu_frac"`

	// Simulated (virtual-time) results.
	TTFTP50Ms  float64 `json:"ttft_p50_ms"`
	TTFTP99Ms  float64 `json:"ttft_p99_ms"`
	TPOTP99Ms  float64 `json:"tpot_p99_ms"`
	Attainment float64 `json:"attainment"`
	GoodputRPS float64 `json:"goodput_rps"`
	// Samples is the number of completed requests the latency
	// percentiles are taken over.
	Samples int `json:"samples"`

	// Counts are the per-layer counters read from the run's Result.
	Counts map[string]float64 `json:"counts"`

	InputDigest  string `json:"input_digest"`
	ResultDigest string `json:"result_digest"`
	// Failures lists every correctness gate or workload property the
	// run broke.
	Failures []string `json:"failures,omitempty"`

	// PeakRSSMB is the child's peak resident set, filled in by the parent
	// from the child's rusage.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// timedSource wraps a traced repetition's source to time the requests'
// generation from the harness side.
type timedSource struct {
	src  workload.Source
	next time.Duration
}

func (s *timedSource) Next() (workload.Request, bool) {
	t := time.Now()
	r, ok := s.src.Next()
	s.next += time.Since(t)
	return r, ok
}

// firstPull is the empty stream of a set-up-only pass: it records when
// the simulator first pulls from it, which ends set-up, and yields
// nothing, so the system is built and the run returns.
type firstPull struct{ at time.Time }

func (p *firstPull) Next() (workload.Request, bool) {
	if p.at.IsZero() {
		p.at = time.Now()
	}
	return workload.Request{}, false
}

// runtime/metrics keys sampled around the measured call.
var runtimeKeys = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return float64(s.Value.Uint64())
	}
	return s.Value.Float64()
}

// runRep runs one repetition of w in this process. Traced, it also
// writes a CPU profile of the measured call and an allocation profile to
// profilePaths, and times Source.Next.
func runRep(w benchWorkload, n int, seed int64, traced bool) (rep, error) {
	cpuProf, memProf := profilePaths(w.name, seed)
	sp, err := w.build(n, seed)
	if err != nil {
		return rep{}, err
	}
	src := sp.source()
	var timed *timedSource
	var cpuFile *os.File
	if traced {
		timed = &timedSource{src: src}
		src = timed
		if err := os.MkdirAll(filepath.Dir(cpuProf), 0o755); err != nil {
			return rep{}, err
		}
		if cpuFile, err = os.Create(cpuProf); err != nil {
			return rep{}, err
		}
		defer cpuFile.Close()
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			return rep{}, err
		}
	}
	before := readRuntime()
	t := time.Now()
	res, err := sp.run(src)
	wall := time.Since(t)
	after := readRuntime()
	if traced {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return rep{}, err
		}
		if err := writeAllocProfile(memProf); err != nil {
			return rep{}, err
		}
	}
	if err != nil {
		return rep{}, err
	}

	out, err := outcomeOf(res, sp.shardStats)
	if err != nil {
		return rep{}, err
	}
	out.WallS = wall.Seconds()
	if timed != nil {
		out.NextS = timed.next.Seconds()
	}
	delta := func(i int) float64 { return sampleFloat(after[i]) - sampleFloat(before[i]) }
	out.AllocObjects = uint64(delta(0))
	out.AllocBytes = uint64(delta(1))
	out.GCCycles = uint64(delta(2))
	if total := delta(4); total > 0 {
		out.GCCPUFrac = delta(3) / total
	}
	out.Failures = append(checkRun(w, out), w.properties(out.Counts)...)
	out.InputDigest = digestSource(sp.source())
	return out, nil
}

// setupOnly builds w and runs it on an empty stream, returning the
// set-up time measured from start: everything up to the first
// Source.Next, with no request simulated.
func setupOnly(w benchWorkload, seed int64, start time.Time) (float64, error) {
	sp, err := w.build(w.requests, seed)
	if err != nil {
		return 0, err
	}
	src := &firstPull{}
	if _, err := sp.run(src); err != nil {
		return 0, err
	}
	if src.at.IsZero() {
		return 0, fmt.Errorf("%s: the simulator never pulled from its source", w.name)
	}
	return src.at.Sub(start).Seconds(), nil
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkRun returns the correctness gates a repetition breaks: every
// request ends in exactly one lifecycle state, no KV block outlives its
// request unless the prefix cache holds it, and the run served requests.
func checkRun(w benchWorkload, out rep) []string {
	var bad []string
	if sum := out.Completed + out.Aborted + out.Rejected + out.Unfinished; sum != out.Requests {
		bad = append(bad, fmt.Sprintf("lifecycle partition: completed %d + aborted %d + rejected %d + unfinished %d = %d, want requests %d",
			out.Completed, out.Aborted, out.Rejected, out.Unfinished, sum, out.Requests))
	}
	if live := out.Counts["kvcache.live_blocks_end"]; !w.prefixCache && out.Unfinished == 0 && live != 0 {
		bad = append(bad, fmt.Sprintf("KV leak: %g blocks live at the end with no request unfinished", live))
	}
	if out.Requests == 0 || out.Samples == 0 {
		bad = append(bad, fmt.Sprintf("empty run: %d requests, %d completed", out.Requests, out.Samples))
	}
	return bad
}

// outcomeOf reads the request counts, simulated results, per-layer
// counters and result digest out of a *serve.Result or *fleet.Result.
func outcomeOf(res any, st *shard.Stats) (rep, error) {
	var (
		out rep
		sum wsmetrics.Summary
		c   = map[string]float64{}
	)
	switch r := res.(type) {
	case *serve.Result:
		out = rep{
			Requests: r.Requests, Completed: r.Summary.Requests,
			Aborted: r.Aborted, Rejected: r.Rejected, Unfinished: r.Unfinished,
		}
		sum = r.Summary
		kv := r.PrefillKV
		kv.Accumulate(r.DecodeKV)
		addKV(c, kv, r.LiveKVBlocks)
		c["engine.prefill_util"] = r.PrefillComputeUtil
		c["engine.decode_util"] = r.DecodeComputeUtil
		c["engine.swap_stall_s"] = r.SwapStallSec
		c["sched.dispatched"] = float64(r.Dispatched)
		c["sched.rescheduled"] = float64(r.Rescheduled)
		c["sched.backups"] = float64(r.Backups)
		c["xfer.transfer_gb"] = r.TransferGB
		c["xfer.migration_gb"] = r.MigrationGB
		c["xfer.async_xfers"] = float64(r.AsyncXfers)
		out.ResultDigest = digestServe(r)
	case *fleet.Result:
		out = rep{
			Requests: r.Requests, Completed: r.Completed,
			Aborted: r.Aborted, Rejected: r.Rejected, Unfinished: r.Unfinished,
		}
		sum = r.Summary
		kv := r.PrefillKV
		kv.Accumulate(r.DecodeKV)
		addKV(c, kv, r.LiveKVBlocks)
		c["engine.prefill_util"] = r.MeanPrefillUtil
		c["engine.decode_util"] = r.MeanDecodeUtil
		c["xfer.transfer_gb"] = r.TransferGB
		c["fleet.failovers"] = float64(r.FailedOver)
		c["fleet.recovered"] = float64(r.Recovered)
		c["fleet.wasted_tokens"] = float64(r.WastedTokens)
		c["fleet.brownout_s"] = r.BrownoutSec
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
		out.ResultDigest = fmt.Sprintf("%x", sum[:8])
	default:
		return rep{}, fmt.Errorf("unexpected result type %T", res)
	}
	if out.Requests > 0 {
		c["sched.dispatch_frac"] = c["sched.dispatched"] / float64(out.Requests)
	}
	if st != nil {
		c["shard.windows"] = float64(st.Windows)
		c["shard.crossings"] = float64(st.Crossings)
		c["shard.solo_windows"] = float64(st.SoloWindows)
		c["shard.delivered"] = float64(st.Delivered)
		if st.Windows > 0 {
			c["shard.crossing_frac"] = float64(st.Crossings) / float64(st.Windows)
		}
	}
	c["engine.prefill_queue_ms"] = sum.PrefillQueueMean.Milliseconds()
	c["engine.decode_queue_ms"] = sum.DecodeQueueMean.Milliseconds()
	c["engine.decode_queue_p99_ms"] = sum.DecodeQueueP99.Milliseconds()
	out.Counts = c
	out.TTFTP50Ms = sum.TTFTP50.Milliseconds()
	out.TTFTP99Ms = sum.TTFTP99.Milliseconds()
	out.TPOTP99Ms = sum.TPOTP99.Milliseconds()
	out.Attainment = sum.Attainment
	out.GoodputRPS = sum.GoodputRPS
	out.Samples = sum.Requests
	return out, nil
}

func addKV(c map[string]float64, kv kvcache.Stats, live int) {
	c["kvcache.failed_allocs"] = float64(kv.FailedAllocs)
	c["kvcache.swap_out_events"] = float64(kv.SwapOutEvents)
	c["kvcache.backup_reclaims"] = float64(kv.BackupReclaims)
	c["kvcache.prefix_hit_ratio"] = kv.PrefixHitRatio()
	c["kvcache.prefix_evictions"] = float64(kv.PrefixEvictions)
	c["kvcache.prefix_demotions"] = float64(kv.PrefixDemotions)
	c["kvcache.prefix_restored_tokens"] = float64(kv.PrefixRestoredTokens)
	c["kvcache.live_blocks_end"] = float64(live)
}

// digestServe fingerprints a testbed Result. %+v of the Result itself
// would print the record pointers' addresses, so the records are printed
// by value after the rest.
func digestServe(r *serve.Result) string {
	h := sha256.New()
	c := *r
	c.Records, c.AbortedRecords, c.RejectedRecords = nil, nil, nil
	fmt.Fprintf(h, "%+v", c)
	for _, recs := range [][]*wsmetrics.Record{r.Records, r.AbortedRecords, r.RejectedRecords} {
		fmt.Fprintf(h, "|%d", len(recs))
		for _, rec := range recs {
			fmt.Fprintf(h, "%+v", *rec)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// digestSource fingerprints every request a source yields.
func digestSource(src workload.Source) string {
	h := sha256.New()
	var buf []byte
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		buf = buf[:0]
		for _, v := range []uint64{r.ID, math.Float64bits(float64(r.Arrival)), uint64(r.PromptTokens),
			uint64(r.OutputTokens), r.SessionID, r.PrefixGroup, uint64(r.PrefixTokens)} {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// childMain runs one repetition, or with setupOnlyRun one set-up-only
// pass, and prints its rep as JSON on stdout. spawned is the harness's
// wall clock, in Unix nanoseconds, when it launched this process.
func childMain(w benchWorkload, seed, spawned int64, setupOnlyRun, traced bool) error {
	if traced {
		runtime.MemProfileRate = 64 << 10
	}
	start := time.Unix(0, spawned)
	if setupOnlyRun {
		s, err := setupOnly(w, seed, start)
		if err != nil {
			return err
		}
		return writeJSON(os.Stdout, rep{SetupS: s})
	}
	r, err := runRep(w, w.requests, seed, traced)
	if err != nil {
		return err
	}
	return writeJSON(os.Stdout, r)
}
