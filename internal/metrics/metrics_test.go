package metrics

import (
	"encoding/csv"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"windserve/internal/sim"
	"windserve/internal/stats"
)

// summarize is the batch reference both recorder modes are checked
// against: one pass over a completed list, exact percentiles.
func summarize(records []*Record, slo SLO) Summary {
	n := len(records)
	if n == 0 {
		return Summary{}
	}
	ttft, tpot, dq := make([]float64, n), make([]float64, n), make([]float64, n)
	var ttftSum, tpotSum, pqSum, dqSum float64
	var meets, meetsTTFT, meetsTPOT, outTokens int
	minArr, maxDone := records[0].Arrival, records[0].Completion
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
		minArr = min(minArr, r.Arrival)
		maxDone = max(maxDone, r.Completion)
		outTokens += r.OutputTokens
	}
	var ttftP, tpotP [3]float64
	var dqP99 [1]float64
	stats.SelectPercentiles(ttft, ttftP[:], 50, 90, 99)
	stats.SelectPercentiles(tpot, tpotP[:], 50, 90, 99)
	stats.SelectPercentiles(dq, dqP99[:], 99)
	s := Summary{
		Requests: n,
		TTFTP50:  sim.Seconds(ttftP[0]),
		TTFTP90:  sim.Seconds(ttftP[1]),
		TTFTP99:  sim.Seconds(ttftP[2]),
		TPOTP50:  sim.Seconds(tpotP[0]),
		TPOTP90:  sim.Seconds(tpotP[1]),
		TPOTP99:  sim.Seconds(tpotP[2]),
		TTFTMean: sim.Seconds(ttftSum / float64(n)),
		TPOTMean: sim.Seconds(tpotSum / float64(n)),

		PrefillQueueMean: sim.Seconds(pqSum / float64(n)),
		DecodeQueueMean:  sim.Seconds(dqSum / float64(n)),
		DecodeQueueP99:   sim.Seconds(dqP99[0]),

		Attainment:     float64(meets) / float64(n),
		TTFTAttainment: float64(meetsTTFT) / float64(n),
		TPOTAttainment: float64(meetsTPOT) / float64(n),
	}
	if span := maxDone.Sub(minArr).Seconds(); span > 0 {
		s.ThroughputRPS = float64(n) / span
		s.GoodputRPS = float64(meets) / span
		s.TokensPerSec = float64(outTokens) / span
	}
	return s
}

// buildRecord runs one request through a recorder with the given timeline.
func buildRecord(t *testing.T, output int, arrival, pStart, first, dStart, done sim.Time) *Record {
	t.Helper()
	rec := NewRecorder(SLO{}, 0)
	rec.Arrive(1, 100, output, arrival)
	rec.PrefillStart(1, pStart)
	rec.FirstToken(1, first)
	rec.DecodeStart(1, dStart)
	rec.Complete(1, done)
	return rec.Completed()[0]
}

func TestRecordLatencies(t *testing.T) {
	// 10 output tokens: first at t=2, done at t=2.9 → 9 gaps of 0.1.
	r := buildRecord(t, 10, 1, 1.5, 2, 2.1, 2.9)
	if got := r.TTFT(); math.Abs(got.Seconds()-1) > 1e-9 {
		t.Errorf("TTFT = %v, want 1s", got)
	}
	if got := r.TPOT(); math.Abs(got.Seconds()-0.1) > 1e-9 {
		t.Errorf("TPOT = %v, want 0.1s", got)
	}
	if got := r.E2E(); math.Abs(got.Seconds()-1.9) > 1e-9 {
		t.Errorf("E2E = %v", got)
	}
	if got := r.PrefillQueueDelay(); math.Abs(got.Seconds()-0.5) > 1e-9 {
		t.Errorf("prefill queue = %v", got)
	}
	if got := r.DecodeQueueDelay(); math.Abs(got.Seconds()-0.1) > 1e-9 {
		t.Errorf("decode queue = %v", got)
	}
}

func TestSingleTokenTPOT(t *testing.T) {
	r := buildRecord(t, 1, 0, 0, 1, 1, 1)
	if r.TPOT() != 0 {
		t.Errorf("single-token TPOT = %v, want 0", r.TPOT())
	}
	if r.DecodeQueueDelay() != 0 {
		t.Error("single-token decode queue should be 0")
	}
}

func TestMeetsSLO(t *testing.T) {
	slo := SLO{TTFT: sim.Seconds(1), TPOT: sim.Seconds(0.1)}
	good := buildRecord(t, 11, 0, 0, 0.5, 0.6, 1.5) // TTFT 0.5, TPOT 0.1
	if !good.MeetsSLO(slo) {
		t.Errorf("good record fails SLO: TTFT=%v TPOT=%v", good.TTFT(), good.TPOT())
	}
	lateFirst := buildRecord(t, 11, 0, 0, 1.5, 1.6, 2.0)
	if lateFirst.MeetsSLO(slo) {
		t.Error("TTFT violator passes")
	}
	slowTokens := buildRecord(t, 11, 0, 0, 0.5, 0.6, 3.0)
	if slowTokens.MeetsSLO(slo) {
		t.Error("TPOT violator passes")
	}
}

func TestRecorderLifecycle(t *testing.T) {
	rec := NewRecorder(SLO{}, 0)
	rec.Arrive(1, 10, 5, 0)
	rec.Arrive(2, 10, 5, 1)
	if rec.Outstanding() != 2 {
		t.Errorf("Outstanding = %d", rec.Outstanding())
	}
	rec.PrefillStart(1, 2)
	rec.PrefillStart(1, 3) // second call must not overwrite
	rec.FirstToken(1, 4)
	rec.DecodeStart(1, 5)
	rec.DecodeStart(1, 6) // first call wins
	rec.Complete(1, 7)
	if rec.Outstanding() != 1 || len(rec.Completed()) != 1 {
		t.Error("lifecycle counts wrong")
	}
	r := rec.Completed()[0]
	if r.PrefillStart != 2 || r.DecodeStart != 5 {
		t.Errorf("first-call-wins violated: %+v", r)
	}
}

func TestRecorderPanics(t *testing.T) {
	rec := NewRecorder(SLO{}, 0)
	rec.Arrive(1, 10, 5, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate arrival should panic")
			}
		}()
		rec.Arrive(1, 10, 5, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown id should panic")
			}
		}()
		rec.FirstToken(99, 1)
	}()
}

func TestSummarize(t *testing.T) {
	slo := SLO{TTFT: sim.Milliseconds(50), TPOT: sim.Milliseconds(60)}
	rec := NewRecorder(slo, 0)
	// 100 requests: TTFT = i ms (i=1..100), TPOT = 50 ms each (2 tokens,
	// gap 50 ms).
	for i := 1; i <= 100; i++ {
		id := uint64(i)
		at := sim.Time(i)
		rec.Arrive(id, 10, 2, at)
		rec.PrefillStart(id, at)
		first := at.Add(sim.Milliseconds(float64(i)))
		rec.FirstToken(id, first)
		rec.DecodeStart(id, first)
		rec.Complete(id, first.Add(sim.Milliseconds(50)))
	}
	s := rec.Summary()
	if want := summarize(rec.Completed(), slo); s != want {
		t.Fatalf("Summary = %+v\nreference %+v", s, want)
	}
	if s.Requests != 100 {
		t.Fatalf("Requests = %d", s.Requests)
	}
	if math.Abs(s.TTFTP50.Milliseconds()-50.5) > 0.6 {
		t.Errorf("TTFT P50 = %v, want ~50.5ms", s.TTFTP50)
	}
	if math.Abs(s.TTFTP99.Milliseconds()-99) > 1.1 {
		t.Errorf("TTFT P99 = %v, want ~99ms", s.TTFTP99)
	}
	if math.Abs(s.TPOTP90.Milliseconds()-50) > 1e-6 {
		t.Errorf("TPOT P90 = %v, want 50ms", s.TPOTP90)
	}
	// Exactly 50 of 100 meet TTFT <= 50 ms, all meet TPOT.
	if s.Attainment != 0.5 || s.TTFTAttainment != 0.5 || s.TPOTAttainment != 1.0 {
		t.Errorf("attainment = %v/%v/%v", s.Attainment, s.TTFTAttainment, s.TPOTAttainment)
	}
	if s.ThroughputRPS <= 0 || s.TokensPerSec <= 0 {
		t.Error("throughput not computed")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	for _, keep := range []int{0, 10} {
		if s := NewRecorder(SLO{}, keep).Summary(); s != (Summary{}) {
			t.Errorf("keep %d: empty summary = %+v", keep, s)
		}
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.MeanOver(sim.Seconds(10)) != 0 {
		t.Error("empty gauge mean should be 0")
	}
	g.AddInterval(0, 10, 0.8)
	g.AddInterval(10, 20, 0.2)
	if m := g.MeanOver(sim.Seconds(20)); math.Abs(m-0.5) > 1e-9 {
		t.Errorf("MeanOver(20) = %v, want 0.5", m)
	}
	if m := g.MeanOver(sim.Seconds(40)); math.Abs(m-0.25) > 1e-9 {
		t.Errorf("MeanOver(40) = %v, want 0.25", m)
	}
	if g.MeanOver(0) != 0 {
		t.Error("MeanOver(0) should be 0")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("backwards interval should panic")
			}
		}()
		g.AddInterval(5, 4, 1)
	}()
}

func TestWriteRecordsCSV(t *testing.T) {
	rec := NewRecorder(SLO{}, 0)
	rec.Arrive(1, 100, 5, 0)
	rec.PrefillStart(1, 0.5)
	rec.FirstToken(1, 1)
	rec.DecodeStart(1, 1.2)
	rec.Complete(1, 2)
	var sb strings.Builder
	if err := WriteRecordsCSV(&sb, rec.Completed()); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1][0] != "1" || recs[1][1] != "100" {
		t.Errorf("row = %v", recs[1])
	}
	// TTFT column (index 8) = 1000 ms.
	if recs[1][8] != "1000.0000" {
		t.Errorf("ttft = %v", recs[1][8])
	}
}

// Property: attainment is monotone in the SLO — loosening both targets
// never lowers the attainment rate.
func TestPropertyAttainmentMonotone(t *testing.T) {
	attainment := func(slo SLO) float64 {
		rec := NewRecorder(slo, 0)
		for i := 1; i <= 200; i++ {
			id := uint64(i)
			rec.Arrive(id, 10, 5, 0)
			rec.PrefillStart(id, 0)
			first := sim.Time(float64(i) * 0.01)
			rec.FirstToken(id, first)
			rec.DecodeStart(id, first)
			rec.Complete(id, first.Add(sim.Duration(float64(i)*0.001)))
		}
		return rec.Summary().Attainment
	}
	f := func(a, b uint8) bool {
		t1 := sim.Duration(float64(a%100) * 0.01)
		t2 := t1 + sim.Duration(float64(b%50)*0.01)
		return attainment(SLO{TTFT: t2, TPOT: t2}) >= attainment(SLO{TTFT: t1, TPOT: t1})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are ordered P50 <= P90 <= P99, exact or sketched.
func TestPropertyPercentileOrder(t *testing.T) {
	f := func(seed uint32, capped bool) bool {
		keep := 0
		if capped {
			keep = 10
		}
		rec := NewRecorder(SLO{}, keep)
		v := float64(seed%1000) + 1
		for i := 1; i <= 50; i++ {
			id := uint64(i)
			rec.Arrive(id, 10, 3, 0)
			rec.PrefillStart(id, 0)
			first := sim.Time(v * float64(i) * 1e-4)
			rec.FirstToken(id, first)
			rec.DecodeStart(id, first)
			rec.Complete(id, first.Add(0.01))
		}
		s := rec.Summary()
		return s.TTFTP50 <= s.TTFTP90 && s.TTFTP90 <= s.TTFTP99 &&
			s.TPOTP50 <= s.TPOTP90 && s.TPOTP90 <= s.TPOTP99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
