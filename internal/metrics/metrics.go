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

// Recorder accumulates request records during a simulation.
type Recorder struct {
	open      map[uint64]*Record
	completed []*Record
	aborted   []*Record
	rejected  []*Record
	// idsScratch backs OpenIDs, so the fault-recovery path (which calls
	// it on every crash and cancellation event) reuses one buffer instead
	// of allocating and sorting a fresh slice per call.
	idsScratch []uint64
	// stream, when non-nil, folds finalized records into online aggregates
	// and recycles the Record structs past a retention cap, bounding memory
	// on long horizons. Nil for the exact (default) recorder.
	stream *streamAgg
}

// NewRecorder returns an empty exact recorder: every finalized record is
// retained, and Summarize computes exact percentiles over all of them.
func NewRecorder() *Recorder {
	return &Recorder{open: make(map[uint64]*Record)}
}

// Arrive registers a new request.
func (rec *Recorder) Arrive(id uint64, prompt, output int, at sim.Time) {
	if _, ok := rec.open[id]; ok {
		panic(fmt.Sprintf("metrics: duplicate arrival for request %d", id))
	}
	if s := rec.stream; s != nil {
		if n := len(s.free); n > 0 {
			r := s.free[n-1]
			s.free = s.free[:n-1]
			*r = Record{ID: id, PromptTokens: prompt, OutputTokens: output, Arrival: at}
			rec.open[id] = r
			return
		}
	}
	rec.open[id] = &Record{ID: id, PromptTokens: prompt, OutputTokens: output, Arrival: at}
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
	if s := rec.stream; s != nil {
		s.observeCompleted(r)
		rec.completed = s.retain(rec.completed, r)
	} else {
		rec.completed = append(rec.completed, r)
	}
	delete(rec.open, id)
}

// Abort finalizes an in-flight request as aborted (deadline miss or
// client cancellation), recording how many output tokens it actually
// produced so TPOT averages over real gaps. Its record leaves the open
// set so it no longer counts as outstanding, and it never joins the
// completed list.
func (rec *Recorder) Abort(id uint64, at sim.Time, emitted int) {
	r := rec.get(id)
	r.Completion = at
	if emitted < 0 {
		emitted = 0
	}
	if emitted > r.OutputTokens {
		emitted = r.OutputTokens
	}
	r.Emitted = emitted
	r.Outcome = OutcomeAborted
	r.done = true
	if s := rec.stream; s != nil {
		s.observeClass(&s.aborted, r)
		rec.aborted = s.retain(rec.aborted, r)
	} else {
		rec.aborted = append(rec.aborted, r)
	}
	delete(rec.open, id)
}

// Reject finalizes a request shed at admission.
func (rec *Recorder) Reject(id uint64, at sim.Time) {
	r := rec.get(id)
	r.Completion = at
	r.Outcome = OutcomeRejected
	r.done = true
	if s := rec.stream; s != nil {
		s.observeClass(&s.rejected, r)
		rec.rejected = s.retain(rec.rejected, r)
	} else {
		rec.rejected = append(rec.rejected, r)
	}
	delete(rec.open, id)
}

// Completed returns finalized records in completion order.
func (rec *Recorder) Completed() []*Record { return rec.completed }

// Aborted returns aborted records in abort order.
func (rec *Recorder) Aborted() []*Record { return rec.aborted }

// Rejected returns shed records in rejection order.
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

// summarizeScratch pools the percentile sort buffers Summarize fills and
// discards on every call — one call per printed row and per run, and the
// parallel experiment runner summarizes several runs concurrently, so the
// scratch is a sync.Pool rather than package-level state.
var summarizeScratch = sync.Pool{New: func() any { return new(scratchBufs) }}

type scratchBufs struct{ ttft, tpot, dq []float64 }

// grow returns buf resized to n, reallocating only when capacity is short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Summarize digests the completed records against an SLO.
func Summarize(records []*Record, slo SLO) Summary {
	if len(records) == 0 {
		return Summary{}
	}
	n := len(records)
	sc := summarizeScratch.Get().(*scratchBufs)
	defer summarizeScratch.Put(sc)
	sc.ttft = grow(sc.ttft, n)
	sc.tpot = grow(sc.tpot, n)
	sc.dq = grow(sc.dq, n)
	ttft, tpot, dq := sc.ttft, sc.tpot, sc.dq
	var ttftSum, tpotSum, pqSum, dqSum float64
	var meets, meetsTTFT, meetsTPOT int
	minArr, maxDone := records[0].Arrival, records[0].Completion
	outTokens := 0
	for i, r := range records {
		ttft[i] = r.TTFT().Seconds()
		tpot[i] = r.TPOT().Seconds()
		dq[i] = r.DecodeQueueDelay().Seconds()
		ttftSum += ttft[i]
		tpotSum += tpot[i]
		pqSum += r.PrefillQueueDelay().Seconds()
		dqSum += dq[i]
		if r.TTFT() <= slo.TTFT {
			meetsTTFT++
		}
		if r.TPOT() <= slo.TPOT {
			meetsTPOT++
		}
		if r.MeetsSLO(slo) {
			meets++
		}
		if r.Arrival < minArr {
			minArr = r.Arrival
		}
		if r.Completion > maxDone {
			maxDone = r.Completion
		}
		outTokens += r.OutputTokens
	}
	slices.Sort(ttft)
	slices.Sort(tpot)
	slices.Sort(dq)
	span := maxDone.Sub(minArr).Seconds()
	s := Summary{
		Requests: n,
		TTFTP50:  sim.Seconds(pct(ttft, 50)),
		TTFTP90:  sim.Seconds(pct(ttft, 90)),
		TTFTP99:  sim.Seconds(pct(ttft, 99)),
		TPOTP50:  sim.Seconds(pct(tpot, 50)),
		TPOTP90:  sim.Seconds(pct(tpot, 90)),
		TPOTP99:  sim.Seconds(pct(tpot, 99)),
		TTFTMean: sim.Seconds(ttftSum / float64(n)),
		TPOTMean: sim.Seconds(tpotSum / float64(n)),

		PrefillQueueMean: sim.Seconds(pqSum / float64(n)),
		DecodeQueueMean:  sim.Seconds(dqSum / float64(n)),
		DecodeQueueP99:   sim.Seconds(pct(dq, 99)),

		Attainment:     float64(meets) / float64(n),
		TTFTAttainment: float64(meetsTTFT) / float64(n),
		TPOTAttainment: float64(meetsTPOT) / float64(n),
	}
	if span > 0 {
		s.ThroughputRPS = float64(n) / span
		s.GoodputRPS = float64(meets) / span
		s.TokensPerSec = float64(outTokens) / span
	}
	return s
}

// pct is stats.PercentileSorted, except that an empty class is 0, not
// NaN — NaN poisons downstream CSV parsing and comparisons the first time
// a fault plan empties a class (e.g. zero aborted requests).
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return stats.PercentileSorted(sorted, p)
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
	total    float64 // ∫ dt
}

// AddInterval accumulates value over [from, to].
func (g *Gauge) AddInterval(from, to sim.Time, value float64) {
	if to < from {
		panic("metrics: gauge interval ends before it starts")
	}
	dt := to.Sub(from).Seconds()
	g.weighted += value * dt
	g.total += dt
}

// Mean returns the time-weighted mean over all recorded intervals,
// treating uncovered time as not observed.
func (g *Gauge) Mean() float64 {
	if g.total == 0 {
		return 0
	}
	return g.weighted / g.total
}

// MeanOver returns the time-weighted mean across a full window of length
// span, counting unobserved time as zero (idle).
func (g *Gauge) MeanOver(span sim.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return g.weighted / span.Seconds()
}

// ObservedTime returns the total covered time.
func (g *Gauge) ObservedTime() sim.Duration { return sim.Seconds(g.total) }

// Series is an append-only time series for plotted quantities (queue
// depths, free blocks, ...).
//
// Setting Cap (>= 2) before the first Append bounds the retained points:
// once the series fills, resolution halves — adjacent points merge into
// buckets holding their count-weighted mean, stamped with the bucket's
// first sample time — and later samples fold into the trailing bucket
// until it reaches the current stride. Mean and Max stay exact regardless
// (tracked as running aggregates over every sample); only the plotted
// shape is decimated. Cap == 0 retains every sample, unchanged.
type Series struct {
	Name string
	Cap  int
	T    []sim.Time
	V    []float64

	cnt    []int // samples merged into each retained point (Cap > 0 only)
	stride int   // samples a full bucket holds; doubles at each compression
	lastT  sim.Time
	total  int
	sum    float64
	max    float64
}

// Append adds a sample. Samples must arrive in time order.
func (s *Series) Append(t sim.Time, v float64) {
	if s.total > 0 && t < s.lastT {
		panic("metrics: series sample out of order")
	}
	s.lastT = t
	s.sum += v
	if s.total == 0 || v > s.max {
		s.max = v
	}
	s.total++
	if s.Cap > 1 {
		if s.stride == 0 {
			s.stride = 1
		}
		if last := len(s.cnt) - 1; last >= 0 && s.cnt[last] < s.stride {
			c := float64(s.cnt[last])
			s.V[last] = (s.V[last]*c + v) / (c + 1)
			s.cnt[last]++
			return
		}
		if len(s.T) >= s.Cap {
			s.compress()
		}
		s.cnt = append(s.cnt, 1)
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// compress halves the series resolution in place: adjacent buckets merge
// into their count-weighted mean at the earlier bucket's timestamp.
func (s *Series) compress() {
	j := 0
	for i := 0; i < len(s.T); i += 2 {
		if i+1 < len(s.T) {
			ca, cb := float64(s.cnt[i]), float64(s.cnt[i+1])
			s.V[j] = (s.V[i]*ca + s.V[i+1]*cb) / (ca + cb)
			s.cnt[j] = s.cnt[i] + s.cnt[i+1]
		} else {
			s.V[j] = s.V[i]
			s.cnt[j] = s.cnt[i]
		}
		s.T[j] = s.T[i]
		j++
	}
	s.T = s.T[:j]
	s.V = s.V[:j]
	s.cnt = s.cnt[:j]
	s.stride *= 2
}

// Len returns the number of retained points (== samples when uncapped).
func (s *Series) Len() int { return len(s.T) }

// Samples returns the total number of samples ever appended.
func (s *Series) Samples() int { return s.total }

// Mean returns the exact unweighted mean over all appended samples.
func (s *Series) Mean() float64 {
	if s.total == 0 {
		return 0
	}
	return s.sum / float64(s.total)
}

// Max returns the exact largest appended sample (0 if empty).
func (s *Series) Max() float64 {
	if s.total == 0 {
		return 0
	}
	return s.max
}
