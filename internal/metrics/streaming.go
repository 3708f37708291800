package metrics

import (
	"fmt"

	"windserve/internal/sim"
	"windserve/internal/stats"
)

// ClassStats is the bounded-memory per-outcome digest a streaming
// recorder maintains: how many records finalized in the class, and the
// mean and max end-to-end latency among them.
type ClassStats struct {
	Count   int
	E2EMean sim.Duration
	E2EMax  sim.Duration
}

// classAgg accumulates one outcome class online.
type classAgg struct {
	count  int
	e2eSum float64
	e2eMax float64
}

func (c *classAgg) stats() ClassStats {
	s := ClassStats{Count: c.count, E2EMax: sim.Seconds(c.e2eMax)}
	if c.count > 0 {
		s.E2EMean = sim.Seconds(c.e2eSum / float64(c.count))
	}
	return s
}

// streamAgg folds finalized records into the online aggregates a Summary
// needs — exact sums, counts, extremes, and SLO attainment, plus P²
// sketches for the percentile fields — so a run's memory no longer scales
// with its request count. Everything except the percentile estimates is
// exact: attainment is counted per record at finalize time against the
// SLO the recorder was built with, and means accumulate in completion
// order, matching what Summarize would compute over the full record set.
type streamAgg struct {
	slo        SLO
	maxRecords int

	completedAgg classAgg
	aborted      classAgg
	rejected     classAgg

	ttftSum, tpotSum, pqSum, dqSum float64
	meets, meetsTTFT, meetsTPOT    int
	minArr, maxDone                sim.Time
	outTokens                      int

	ttftQ [3]*stats.P2Quantile // p50, p90, p99
	tpotQ [3]*stats.P2Quantile
	dqQ   *stats.P2Quantile

	// free recycles Record structs dropped past the retention cap.
	free []*Record
}

// DefaultMaxRecords is the per-class retention cap a streaming recorder
// uses when none is given: enough for CDF plots and spot checks, small
// enough that a million-request run keeps O(10^4) records alive.
const DefaultMaxRecords = 10_000

// NewStreamingRecorder returns a recorder that digests finalized records
// into online aggregates, retaining only the first maxRecords records per
// outcome class (DefaultMaxRecords if maxRecords <= 0). The SLO must be
// supplied up front because attainment is counted as records finalize.
// Use StreamSummary to read the digest; lifecycle methods and the open-set
// queries behave exactly as on an exact recorder.
func NewStreamingRecorder(slo SLO, maxRecords int) *Recorder {
	if maxRecords <= 0 {
		maxRecords = DefaultMaxRecords
	}
	s := &streamAgg{slo: slo, maxRecords: maxRecords}
	for i, p := range []float64{0.5, 0.9, 0.99} {
		s.ttftQ[i] = stats.NewP2Quantile(p)
		s.tpotQ[i] = stats.NewP2Quantile(p)
	}
	s.dqQ = stats.NewP2Quantile(0.99)
	return &Recorder{open: make(map[uint64]*Record), stream: s}
}

// Streaming reports whether this recorder digests records online.
func (rec *Recorder) Streaming() bool { return rec.stream != nil }

// ClassStats returns the online per-class digest. It requires a streaming
// recorder; exact recorders keep every record, so callers there compute
// whatever they need from Completed/Aborted/Rejected directly.
func (rec *Recorder) ClassStats(o Outcome) ClassStats {
	s := rec.stream
	if s == nil {
		panic("metrics: ClassStats requires a streaming recorder")
	}
	switch o {
	case OutcomeCompleted:
		return s.completedAgg.stats()
	case OutcomeAborted:
		return s.aborted.stats()
	default:
		return s.rejected.stats()
	}
}

// retain appends r to a finalized-record list if it is under the cap,
// otherwise recycles the struct for a future Arrive.
func (s *streamAgg) retain(list []*Record, r *Record) []*Record {
	if len(list) < s.maxRecords {
		return append(list, r)
	}
	s.free = append(s.free, r)
	return list
}

// observeClass folds a finalized record into its outcome-class digest.
func (s *streamAgg) observeClass(c *classAgg, r *Record) {
	e2e := r.E2E().Seconds()
	c.e2eSum += e2e
	if c.count == 0 || e2e > c.e2eMax {
		c.e2eMax = e2e
	}
	c.count++
}

// observeCompleted folds a completed record into the Summary aggregates.
// The accumulation order is completion order — the same order Summarize
// walks the completed list in — so the exact fields agree bit-for-bit.
func (s *streamAgg) observeCompleted(r *Record) {
	s.observeClass(&s.completedAgg, r)
	ttft := r.TTFT().Seconds()
	tpot := r.TPOT().Seconds()
	dq := r.DecodeQueueDelay().Seconds()
	s.ttftSum += ttft
	s.tpotSum += tpot
	s.pqSum += r.PrefillQueueDelay().Seconds()
	s.dqSum += dq
	if r.TTFT() <= s.slo.TTFT {
		s.meetsTTFT++
	}
	if r.TPOT() <= s.slo.TPOT {
		s.meetsTPOT++
	}
	if r.MeetsSLO(s.slo) {
		s.meets++
	}
	if s.completedAgg.count == 1 {
		s.minArr, s.maxDone = r.Arrival, r.Completion
	} else {
		if r.Arrival < s.minArr {
			s.minArr = r.Arrival
		}
		if r.Completion > s.maxDone {
			s.maxDone = r.Completion
		}
	}
	s.outTokens += r.OutputTokens
	for i := range s.ttftQ {
		s.ttftQ[i].Add(ttft)
		s.tpotQ[i].Add(tpot)
	}
	s.dqQ.Add(dq)
}

// Summary digests the recorder's completed requests against an SLO: the
// online aggregates of a streaming recorder, or Summarize over the
// retained records of an exact one.
func (rec *Recorder) Summary(slo SLO) Summary {
	if rec.Streaming() {
		return rec.StreamSummary()
	}
	return Summarize(rec.completed, slo)
}

// StreamSummary assembles a Summary from the online aggregates. Counts,
// means, attainment, and throughput are exact; the percentile fields are
// P² estimates (within ~1% of exact in the tested regimes). Requires a
// streaming recorder.
func (rec *Recorder) StreamSummary() Summary {
	st := rec.stream
	if st == nil {
		panic("metrics: StreamSummary requires a streaming recorder")
	}
	n := st.completedAgg.count
	if n == 0 {
		return Summary{}
	}
	span := st.maxDone.Sub(st.minArr).Seconds()
	s := Summary{
		Requests: n,
		TTFTP50:  sim.Seconds(st.ttftQ[0].Value()),
		TTFTP90:  sim.Seconds(st.ttftQ[1].Value()),
		TTFTP99:  sim.Seconds(st.ttftQ[2].Value()),
		TPOTP50:  sim.Seconds(st.tpotQ[0].Value()),
		TPOTP90:  sim.Seconds(st.tpotQ[1].Value()),
		TPOTP99:  sim.Seconds(st.tpotQ[2].Value()),
		TTFTMean: sim.Seconds(st.ttftSum / float64(n)),
		TPOTMean: sim.Seconds(st.tpotSum / float64(n)),

		PrefillQueueMean: sim.Seconds(st.pqSum / float64(n)),
		DecodeQueueMean:  sim.Seconds(st.dqSum / float64(n)),
		DecodeQueueP99:   sim.Seconds(st.dqQ.Value()),

		Attainment:     float64(st.meets) / float64(n),
		TTFTAttainment: float64(st.meetsTTFT) / float64(n),
		TPOTAttainment: float64(st.meetsTPOT) / float64(n),
	}
	if span > 0 {
		s.ThroughputRPS = float64(n) / span
		s.GoodputRPS = float64(st.meets) / span
		s.TokensPerSec = float64(st.outTokens) / span
	}
	return s
}

// String makes ClassStats readable in test failures and debug dumps.
func (c ClassStats) String() string {
	return fmt.Sprintf("count=%d e2e_mean=%v e2e_max=%v", c.Count, c.E2EMean, c.E2EMax)
}
