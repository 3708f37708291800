package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"windserve/internal/sim"
)

// driveRecorders feeds the same synthetic lifecycle stream into a
// recorder that keeps every record and one capped at keep.
func driveRecorders(n int, slo SLO, keep int) (exact, capped *Recorder) {
	exact, capped = NewRecorder(slo, 0), NewRecorder(slo, keep)
	rng := rand.New(rand.NewSource(42))
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		now = now.Add(sim.Duration(rng.ExpFloat64() * 0.05))
		arr := now
		ttft := sim.Duration(0.02 + rng.ExpFloat64()*0.08)
		tokens := 2 + rng.Intn(200)
		tpot := sim.Duration(0.01 + rng.Float64()*0.04)
		for _, rec := range []*Recorder{exact, capped} {
			rec.Arrive(id, 100, tokens, arr)
			rec.PrefillStart(id, arr.Add(ttft/2))
			rec.FirstToken(id, arr.Add(ttft))
			rec.DecodeStart(id, arr.Add(ttft+0.005))
			rec.Complete(id, arr.Add(ttft+sim.Duration(float64(tpot)*float64(tokens-1))))
		}
	}
	return exact, capped
}

// withoutPercentiles zeroes a Summary's percentile fields, leaving the
// ones both recorder modes compute exactly.
func withoutPercentiles(s Summary) Summary {
	s.TTFTP50, s.TTFTP90, s.TTFTP99 = 0, 0, 0
	s.TPOTP50, s.TPOTP90, s.TPOTP99 = 0, 0, 0
	s.DecodeQueueP99 = 0
	return s
}

// TestStreamingAgreesWithExact: on 100k completions the uncapped
// recorder's Summary equals the batch reference bit for bit, and the
// capped recorder's agrees with it bit for bit on every field but the
// percentiles (same fold, same order), whose sketches land within 1%.
func TestStreamingAgreesWithExact(t *testing.T) {
	slo := SLO{TTFT: sim.Seconds(0.1), TPOT: sim.Seconds(0.04)}
	exact, capped := driveRecorders(100_000, slo, 1000)
	want := exact.Summary()
	if ref := summarize(exact.Completed(), slo); want != ref {
		t.Fatalf("uncapped Summary = %+v\nreference       %+v", want, ref)
	}
	got := capped.Summary()
	if withoutPercentiles(got) != withoutPercentiles(want) {
		t.Errorf("capped Summary exact fields = %+v\nuncapped                      %+v",
			withoutPercentiles(got), withoutPercentiles(want))
	}
	for name, v := range map[string][2]sim.Duration{
		"TTFTP50": {got.TTFTP50, want.TTFTP50},
		"TTFTP99": {got.TTFTP99, want.TTFTP99},
		"TPOTP50": {got.TPOTP50, want.TPOTP50},
		"TPOTP99": {got.TPOTP99, want.TPOTP99},
	} {
		if err := math.Abs(v[0].Seconds()-v[1].Seconds()) / v[1].Seconds(); err > 0.01 {
			t.Errorf("%s: sketch %v vs exact %v, relative error %.4f > 1%%", name, v[0], v[1], err)
		}
	}
}

// TestStreamingRetentionCap: a capped recorder keeps exactly the first
// keep completions, intact while it recycles the records past the cap,
// and its Summary still counts every completion.
func TestStreamingRetentionCap(t *testing.T) {
	slo := SLO{TTFT: sim.Seconds(0.1), TPOT: sim.Seconds(0.04)}
	exact, capped := driveRecorders(5000, slo, 100)
	if n := len(capped.Completed()); n != 100 {
		t.Fatalf("retained %d completed records, want cap 100", n)
	}
	if n := capped.Summary().Requests; n != 5000 {
		t.Errorf("Summary counts %d completions, want 5000", n)
	}
	for i, r := range capped.Completed() {
		if *r != *exact.Completed()[i] {
			t.Fatalf("retained record %d = %+v, want %+v", i, *r, *exact.Completed()[i])
		}
	}
}

// TestStreamingAbortReject: the cap holds per outcome, recycling never
// overwrites a retained record, and only completions reach the Summary.
func TestStreamingAbortReject(t *testing.T) {
	slo := SLO{TTFT: sim.Seconds(0.1), TPOT: sim.Seconds(0.04)}
	rec := NewRecorder(slo, 10)
	for i := 0; i < 50; i++ {
		id := uint64(i + 1)
		rec.Arrive(id, 10, 5, sim.Time(float64(i)))
		switch i % 3 {
		case 0:
			rec.Reject(id, sim.Time(float64(i)+0.001))
		case 1:
			rec.FirstToken(id, sim.Time(float64(i)+0.1))
			rec.Abort(id, sim.Time(float64(i)+0.2), 2)
		default:
			rec.FirstToken(id, sim.Time(float64(i)+0.1))
			rec.Complete(id, sim.Time(float64(i)+0.3))
		}
	}
	if got := rec.Summary().Requests; got != 16 {
		t.Errorf("Summary counts %d completions, want 16", got)
	}
	for _, c := range []struct {
		name  string
		recs  []*Record
		first uint64 // ID of the class's first record; each third ID follows
	}{{"rejected", rec.Rejected(), 1}, {"aborted", rec.Aborted(), 2}, {"completed", rec.Completed(), 3}} {
		if len(c.recs) != 10 {
			t.Errorf("retained %d %s records, want cap 10", len(c.recs), c.name)
		}
		for i, r := range c.recs {
			if want := c.first + 3*uint64(i); r.ID != want {
				t.Errorf("%s record %d has ID %d, want %d", c.name, i, r.ID, want)
			}
		}
	}
	if rec.Outstanding() != 0 {
		t.Errorf("outstanding %d, want 0", rec.Outstanding())
	}
}

// TestWriteRecordsCSVFormat pins the strconv fast path against the
// fmt.Sprintf formatting it replaced.
func TestWriteRecordsCSVFormat(t *testing.T) {
	rec := NewRecorder(SLO{}, 0)
	rec.Arrive(7, 128, 32, 1.25)
	rec.PrefillStart(7, 1.375)
	rec.FirstToken(7, 1.5)
	rec.DecodeStart(7, 1.625)
	rec.Complete(7, 3.875)
	var sb strings.Builder
	if err := WriteRecordsCSV(&sb, rec.Completed()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 row", len(lines))
	}
	want := "7,128,32,1.250000,1.375000,1.500000,1.625000,3.875000," +
		"250.0000,76.6129,2625.0000,125.0000,125.0000,completed,32"
	if lines[1] != want {
		t.Errorf("row = %q\nwant  %q", lines[1], want)
	}
}
