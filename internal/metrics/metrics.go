// Package metrics records per-request latency timelines and instance-level
// utilization for the WindServe experiments. The quantities here are
// exactly the paper's evaluation metrics (§5.1): TTFT (arrival → first
// token, including queuing), TPOT (mean per-token time after the first),
// their percentiles, and the SLO attainment rate — the fraction of
// requests meeting both the TTFT and TPOT SLOs.
package metrics

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"

	"windserve/internal/sim"
	"windserve/internal/stats"
)

// SLO is a service level objective pair (paper Table 4).
type SLO struct {
	TTFT sim.Duration
	TPOT sim.Duration
}

// Outcome classifies how a request's lifecycle ended.
type Outcome int

const (
	// OutcomeCompleted: every output token was produced.
	OutcomeCompleted Outcome = iota
	// OutcomeAborted: terminated in flight — a TTFT-deadline abort or a
	// client cancellation.
	OutcomeAborted
	// OutcomeRejected: shed at admission before any work was done.
	OutcomeRejected
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeAborted:
		return "aborted"
	case OutcomeRejected:
		return "rejected"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Record is the life of one request through the serving system.
type Record struct {
	ID           uint64
	PromptTokens int
	// OutputTokens is the planned output length; Emitted counts tokens
	// actually produced by the time the record finalized. For completed
	// requests they agree; an aborted request stops short, and its TPOT
	// must average over the gaps that actually happened, not the plan.
	OutputTokens int
	Emitted      int
	Outcome      Outcome

	Arrival      sim.Time
	PrefillStart sim.Time // prefill began executing
	FirstToken   sim.Time // prefill finished (first output token emitted)
	DecodeStart  sim.Time // first decode iteration began
	Completion   sim.Time // EOS emitted (or the abort/reject instant)

	done bool
}

// TTFT is the time-to-first-token including queuing delay.
func (r *Record) TTFT() sim.Duration { return r.FirstToken.Sub(r.Arrival) }

// tokensOut is the token count TPOT averages over: tokens actually
// emitted once the record is finalized, the planned output length for
// hand-built or still-open records (where Emitted was never set).
func (r *Record) tokensOut() int {
	if r.done || r.Emitted > 0 {
		return r.Emitted
	}
	return r.OutputTokens
}

// TPOT is the mean time per emitted token excluding the first. Requests
// that produced at most one token have no inter-token gaps; their TPOT
// is 0. Aborted requests average over the tokens they actually emitted —
// dividing their truncated decode span by the planned OutputTokens would
// deflate TPOT percentiles and SLO attainment under fault plans.
func (r *Record) TPOT() sim.Duration {
	n := r.tokensOut()
	if n <= 1 {
		return 0
	}
	return sim.Duration(r.Completion.Sub(r.FirstToken).Seconds() / float64(n-1))
}

// E2E is the total latency from arrival to completion.
func (r *Record) E2E() sim.Duration { return r.Completion.Sub(r.Arrival) }

// PrefillQueueDelay is the time spent waiting before prefill began.
func (r *Record) PrefillQueueDelay() sim.Duration { return r.PrefillStart.Sub(r.Arrival) }

// DecodeQueueDelay is the time between first token and the first decode
// step (KV transfer + decode queue for disaggregated systems). Zero for
// requests that never reached decode (single-token outputs, aborts
// during the handoff).
func (r *Record) DecodeQueueDelay() sim.Duration {
	if r.tokensOut() <= 1 || r.DecodeStart == 0 {
		return 0
	}
	return r.DecodeStart.Sub(r.FirstToken)
}

// MeetsSLO reports whether the request met both targets.
func (r *Record) MeetsSLO(slo SLO) bool {
	return r.TTFT() <= slo.TTFT && r.TPOT() <= slo.TPOT
}

// Recorder accumulates request records during a simulation. Every
// completion folds into one set of online sums in completion order, and
// Summary reads them, so counts, means, attainment and throughput are
// exact however many records the recorder keeps. A recorder that keeps
// every record computes its percentiles exactly over them; one built with
// a retention cap keeps only the first keep records per outcome, recycles
// the rest, and reads its percentiles from P² sketches, so a run's memory
// no longer scales with its request count.
type Recorder struct {
	slo SLO
	// keep caps the records retained per outcome; <= 0 keeps every one.
	keep      int
	open      map[uint64]*Record
	completed []*Record
	aborted   []*Record
	rejected  []*Record
	// idsScratch backs OpenIDs, so the fault-recovery path (which calls
	// it on every crash and cancellation event) reuses one buffer instead
	// of allocating and sorting a fresh slice per call.
	idsScratch []uint64
	// chunk is the unused rest of the block new records are carved from,
	// and free holds records dropped past the cap, which Arrive reuses
	// first. Every record is open, retained or free, so a chunk never
	// pins a dead one.
	chunk []Record
	free  []*Record

	// The online digest of every completed record; n counts them.
	n                              int
	ttftSum, tpotSum, pqSum, dqSum float64
	meets, meetsTTFT, meetsTPOT    int
	minArr, maxDone                sim.Time
	outTokens                      int
	// sketch estimates the percentile fields; nil when every record is kept.
	sketch *sketches
}

// sketches are the P² estimators of a capped recorder's percentiles.
type sketches struct {
	ttft, tpot [3]*stats.P2Quantile // p50, p90, p99
	dq         *stats.P2Quantile    // p99
}

// recordChunk is how many records one heap allocation holds (~22 KiB).
const recordChunk = 256

// DefaultMaxRecords is the per-outcome retention cap a streaming run uses
// when none is given: enough for CDF plots and spot checks, small enough
// that a million-request run keeps O(10^4) records alive.
const DefaultMaxRecords = 10_000

// NewRecorder returns an empty recorder that digests completions against
// slo. keep <= 0 keeps every finalized record and computes exact
// percentiles; keep > 0 retains only the first keep records per outcome
// and estimates percentiles with P² sketches (within ~1% of exact in the
// tested regimes).
func NewRecorder(slo SLO, keep int) *Recorder {
	rec := &Recorder{slo: slo, keep: keep, open: make(map[uint64]*Record)}
	if keep > 0 {
		sk := &sketches{dq: stats.NewP2Quantile(0.99)}
		for i, p := range [3]float64{0.5, 0.9, 0.99} {
			sk.ttft[i] = stats.NewP2Quantile(p)
			sk.tpot[i] = stats.NewP2Quantile(p)
		}
		rec.sketch = sk
	}
	return rec
}

// Arrive registers a new request.
func (rec *Recorder) Arrive(id uint64, prompt, output int, at sim.Time) {
	if _, ok := rec.open[id]; ok {
		panic(fmt.Sprintf("metrics: duplicate arrival for request %d", id))
	}
	var r *Record
	if n := len(rec.free); n > 0 {
		r, rec.free = rec.free[n-1], rec.free[:n-1]
	} else {
		if len(rec.chunk) == 0 {
			rec.chunk = make([]Record, recordChunk)
		}
		r, rec.chunk = &rec.chunk[0], rec.chunk[1:]
	}
	*r = Record{ID: id, PromptTokens: prompt, OutputTokens: output, Arrival: at}
	rec.open[id] = r
}

func (rec *Recorder) get(id uint64) *Record {
	r, ok := rec.open[id]
	if !ok {
		panic(fmt.Sprintf("metrics: unknown request %d", id))
	}
	return r
}

// PrefillStart marks the beginning of prefill execution. Called once; for
// chunked prefill, on the first chunk.
func (rec *Recorder) PrefillStart(id uint64, at sim.Time) {
	r := rec.get(id)
	if r.PrefillStart == 0 {
		r.PrefillStart = at
	}
}

// FirstToken marks prefill completion (first call wins — a request that
// re-prefills after crash recovery already streamed its first token).
func (rec *Recorder) FirstToken(id uint64, at sim.Time) {
	r := rec.get(id)
	if r.FirstToken == 0 {
		r.FirstToken = at
	}
}

// DecodeStart marks the first decode iteration (first call wins).
func (rec *Recorder) DecodeStart(id uint64, at sim.Time) {
	r := rec.get(id)
	if r.DecodeStart == 0 {
		r.DecodeStart = at
	}
}

// Complete marks EOS and finalizes the record.
func (rec *Recorder) Complete(id uint64, at sim.Time) {
	r := rec.get(id)
	r.Completion = at
	r.Emitted = r.OutputTokens
	r.done = true
	rec.fold(r)
	rec.finish(&rec.completed, r)
}

// Abort finalizes an in-flight request as aborted (deadline miss or
// client cancellation), recording how many output tokens it actually
// produced so TPOT averages over real gaps. Its record leaves the open
// set so it no longer counts as outstanding, and it never joins the
// completed list.
func (rec *Recorder) Abort(id uint64, at sim.Time, emitted int) {
	r := rec.get(id)
	r.Completion = at
	r.Emitted = min(max(emitted, 0), r.OutputTokens)
	r.Outcome = OutcomeAborted
	r.done = true
	rec.finish(&rec.aborted, r)
}

// Reject finalizes a request shed at admission.
func (rec *Recorder) Reject(id uint64, at sim.Time) {
	r := rec.get(id)
	r.Completion = at
	r.Outcome = OutcomeRejected
	r.done = true
	rec.finish(&rec.rejected, r)
}

// finish closes a finalized record: it leaves the open set and joins its
// outcome list, or, past the cap, waits on the free list for an Arrive.
func (rec *Recorder) finish(list *[]*Record, r *Record) {
	delete(rec.open, r.ID)
	if rec.keep <= 0 || len(*list) < rec.keep {
		*list = append(*list, r)
	} else {
		rec.free = append(rec.free, r)
	}
}

// fold adds a completed record to the online digest. The sums accumulate
// in completion order, so they equal a batch pass over the completed
// list bit for bit.
func (rec *Recorder) fold(r *Record) {
	ttft, tpot, dq := r.TTFT().Seconds(), r.TPOT().Seconds(), r.DecodeQueueDelay().Seconds()
	rec.ttftSum += ttft
	rec.tpotSum += tpot
	rec.pqSum += r.PrefillQueueDelay().Seconds()
	rec.dqSum += dq
	if r.TTFT() <= rec.slo.TTFT {
		rec.meetsTTFT++
	}
	if r.TPOT() <= rec.slo.TPOT {
		rec.meetsTPOT++
	}
	if r.MeetsSLO(rec.slo) {
		rec.meets++
	}
	if rec.n == 0 || r.Arrival < rec.minArr {
		rec.minArr = r.Arrival
	}
	if rec.n == 0 || r.Completion > rec.maxDone {
		rec.maxDone = r.Completion
	}
	rec.n++
	rec.outTokens += r.OutputTokens
	if sk := rec.sketch; sk != nil {
		for i := range sk.ttft {
			sk.ttft[i].Add(ttft)
			sk.tpot[i].Add(tpot)
		}
		sk.dq.Add(dq)
	}
}

// Completed returns retained completed records in completion order.
func (rec *Recorder) Completed() []*Record { return rec.completed }

// Aborted returns retained aborted records in abort order.
func (rec *Recorder) Aborted() []*Record { return rec.aborted }

// Rejected returns retained shed records in rejection order.
func (rec *Recorder) Rejected() []*Record { return rec.rejected }

// Outstanding returns the number of requests still in flight.
func (rec *Recorder) Outstanding() int { return len(rec.open) }

// InFlight reports whether the request is still open (arrived, not yet
// completed, aborted, or rejected).
func (rec *Recorder) InFlight(id uint64) bool {
	_, ok := rec.open[id]
	return ok
}

// HasFirstToken reports whether an in-flight request has produced its
// first output token (false for unknown or finalized requests).
func (rec *Recorder) HasFirstToken(id uint64) bool {
	r, ok := rec.open[id]
	return ok && r.FirstToken != 0
}

// OpenIDs returns the in-flight request ids in ascending order — the
// deterministic sampling frame for client-cancellation faults. The
// returned slice is the recorder's scratch buffer: it stays valid only
// until the next OpenIDs call, and callers must not retain it.
func (rec *Recorder) OpenIDs() []uint64 {
	ids := rec.idsScratch[:0]
	if cap(ids) < len(rec.open) {
		ids = make([]uint64, 0, len(rec.open))
	}
	for id := range rec.open {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	rec.idsScratch = ids
	return ids
}

// Summary is the digest the benchmark harness prints (one row per system
// per request rate in Fig. 10/11).
type Summary struct {
	Requests int

	TTFTP50, TTFTP90, TTFTP99 sim.Duration
	TPOTP50, TPOTP90, TPOTP99 sim.Duration
	TTFTMean, TPOTMean        sim.Duration

	PrefillQueueMean sim.Duration
	DecodeQueueMean  sim.Duration
	DecodeQueueP99   sim.Duration

	// Attainment is the fraction of requests meeting both SLOs; the
	// TTFT/TPOT variants count each target alone (Fig. 12 diagnoses which
	// target binds).
	Attainment     float64
	TTFTAttainment float64
	TPOTAttainment float64

	ThroughputRPS float64 // completed requests per second of span
	// GoodputRPS counts only SLO-attaining completions per second — the
	// quantity load shedding is meant to protect: work the system both
	// finished and finished fast enough.
	GoodputRPS   float64
	TokensPerSec float64 // output tokens per second of span
}

// percentileScratch pools the buffers an exact Summary fills and
// discards on every call — one call per printed row and per run, and the
// parallel experiment runner summarizes several runs concurrently, so the
// scratch is a sync.Pool rather than package-level state.
var percentileScratch = sync.Pool{New: func() any { return new(scratchBufs) }}

type scratchBufs struct{ ttft, tpot, dq []float64 }

// grow returns buf resized to n, reallocating only when capacity is short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Summary digests the completed requests against the recorder's SLO.
// Everything but the percentile fields comes from the online sums; the
// percentiles are exact over the retained records of a recorder that
// keeps them all, and P² estimates on a capped one.
func (rec *Recorder) Summary() Summary {
	n := rec.n
	if n == 0 {
		return Summary{}
	}
	var ttftP, tpotP [3]float64
	var dqP99 float64
	if sk := rec.sketch; sk != nil {
		for i := range ttftP {
			ttftP[i] = sk.ttft[i].Value()
			tpotP[i] = sk.tpot[i].Value()
		}
		dqP99 = sk.dq.Value()
	} else {
		sc := percentileScratch.Get().(*scratchBufs)
		defer percentileScratch.Put(sc)
		ttft, tpot, dq := grow(sc.ttft, n), grow(sc.tpot, n), grow(sc.dq, n)
		sc.ttft, sc.tpot, sc.dq = ttft, tpot, dq
		for i, r := range rec.completed {
			ttft[i] = r.TTFT().Seconds()
			tpot[i] = r.TPOT().Seconds()
			dq[i] = r.DecodeQueueDelay().Seconds()
		}
		var dq99 [1]float64
		stats.SelectPercentiles(ttft, ttftP[:], 50, 90, 99)
		stats.SelectPercentiles(tpot, tpotP[:], 50, 90, 99)
		stats.SelectPercentiles(dq, dq99[:], 99)
		dqP99 = dq99[0]
	}
	span := rec.maxDone.Sub(rec.minArr).Seconds()
	s := Summary{
		Requests: n,
		TTFTP50:  sim.Seconds(ttftP[0]),
		TTFTP90:  sim.Seconds(ttftP[1]),
		TTFTP99:  sim.Seconds(ttftP[2]),
		TPOTP50:  sim.Seconds(tpotP[0]),
		TPOTP90:  sim.Seconds(tpotP[1]),
		TPOTP99:  sim.Seconds(tpotP[2]),
		TTFTMean: sim.Seconds(rec.ttftSum / float64(n)),
		TPOTMean: sim.Seconds(rec.tpotSum / float64(n)),

		PrefillQueueMean: sim.Seconds(rec.pqSum / float64(n)),
		DecodeQueueMean:  sim.Seconds(rec.dqSum / float64(n)),
		DecodeQueueP99:   sim.Seconds(dqP99),

		Attainment:     float64(rec.meets) / float64(n),
		TTFTAttainment: float64(rec.meetsTTFT) / float64(n),
		TPOTAttainment: float64(rec.meetsTPOT) / float64(n),
	}
	if span > 0 {
		s.ThroughputRPS = float64(n) / span
		s.GoodputRPS = float64(rec.meets) / span
		s.TokensPerSec = float64(rec.outTokens) / span
	}
	return s
}

// WriteRecordsCSV emits one line per completed request — the raw material
// for latency CDFs and scatter plots outside this repo. Rows are formatted
// with strconv into one reusable buffer (a single string allocation per
// row instead of one per field) and written through a large bufio.Writer:
// on a mega-run export the per-row work, not the disk, is the bottleneck.
func WriteRecordsCSV(w io.Writer, records []*Record) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{
		"id", "prompt_tokens", "output_tokens",
		"arrival_s", "prefill_start_s", "first_token_s", "decode_start_s", "completion_s",
		"ttft_ms", "tpot_ms", "e2e_ms", "prefill_queue_ms", "decode_queue_ms",
		"outcome", "emitted_tokens",
	}); err != nil {
		return err
	}
	var row [15]string
	var marks [16]int
	buf := make([]byte, 0, 256)
	for _, r := range records {
		buf = buf[:0]
		marks[0] = 0
		appendMark := func(i int) { marks[i+1] = len(buf) }
		buf = strconv.AppendUint(buf, r.ID, 10)
		appendMark(0)
		buf = strconv.AppendInt(buf, int64(r.PromptTokens), 10)
		appendMark(1)
		buf = strconv.AppendInt(buf, int64(r.OutputTokens), 10)
		appendMark(2)
		for i, t := range [5]float64{
			float64(r.Arrival), float64(r.PrefillStart), float64(r.FirstToken),
			float64(r.DecodeStart), float64(r.Completion),
		} {
			buf = strconv.AppendFloat(buf, t, 'f', 6, 64)
			appendMark(3 + i)
		}
		for i, d := range [5]float64{
			r.TTFT().Milliseconds(), r.TPOT().Milliseconds(), r.E2E().Milliseconds(),
			r.PrefillQueueDelay().Milliseconds(), r.DecodeQueueDelay().Milliseconds(),
		} {
			buf = strconv.AppendFloat(buf, d, 'f', 4, 64)
			appendMark(8 + i)
		}
		buf = strconv.AppendInt(buf, int64(r.tokensOut()), 10)
		appendMark(13)
		line := string(buf)
		for i := 0; i < 13; i++ {
			row[i] = line[marks[i]:marks[i+1]]
		}
		row[13] = r.Outcome.String()
		row[14] = line[marks[13]:marks[14]]
		if err := cw.Write(row[:]); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// Gauge integrates a piecewise-constant value over virtual time — used for
// the Fig. 2 utilization measurements (tensor-core utilization of prefill
// instances, memory-bandwidth utilization of decode instances).
type Gauge struct {
	weighted float64 // ∫ value dt
}

// AddInterval accumulates value over [from, to].
func (g *Gauge) AddInterval(from, to sim.Time, value float64) {
	if to < from {
		panic("metrics: gauge interval ends before it starts")
	}
	g.weighted += value * to.Sub(from).Seconds()
}

// MeanOver returns the time-weighted mean across a full window of length
// span, counting unobserved time as zero (idle).
func (g *Gauge) MeanOver(span sim.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return g.weighted / span.Seconds()
}
