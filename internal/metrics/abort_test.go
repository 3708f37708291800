package metrics

import (
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"windserve/internal/sim"
)

// buildAborted runs one request through a recorder and aborts it mid-decode.
func buildAborted(t *testing.T, planned, emitted int, first, abortAt sim.Time) *Record {
	t.Helper()
	rec := NewRecorder(SLO{}, 0)
	rec.Arrive(1, 100, planned, 0)
	rec.PrefillStart(1, 0.1)
	rec.FirstToken(1, first)
	rec.DecodeStart(1, first.Add(sim.Seconds(0.01)))
	rec.Abort(1, abortAt, emitted)
	ab := rec.Aborted()
	if len(ab) != 1 {
		t.Fatalf("aborted records = %d, want 1", len(ab))
	}
	return ab[0]
}

// TestAbortedTPOTUsesEmittedTokens is the regression test for the
// latency-accounting bug: an aborted request's TPOT must average its
// decode span over the tokens it actually emitted, not the planned
// OutputTokens. Planned 100, emitted 10, 0.9s between first token and
// abort → 9 real gaps of 0.1s. The old accounting divided by 99 and
// reported ~9ms, deflating TPOT percentiles under fault plans.
func TestAbortedTPOTUsesEmittedTokens(t *testing.T) {
	r := buildAborted(t, 100, 10, 0.5, 1.4)
	got := r.TPOT().Seconds()
	if math.Abs(got-0.1) > 1e-9 {
		t.Errorf("aborted TPOT = %vs, want 0.1s (span/emitted-1)", got)
	}
	// Explicitly rule the old behavior back in: span/(planned-1) ≈ 9.09ms.
	if old := 0.9 / 99; math.Abs(got-old) < 1e-6 {
		t.Errorf("aborted TPOT = %vs — still dividing by planned OutputTokens", got)
	}
}

func TestAbortedBeforeDecodeHasZeroTPOT(t *testing.T) {
	// Aborted after the first token but before any further emission:
	// one token, no gaps.
	r := buildAborted(t, 100, 1, 0.5, 0.6)
	if r.TPOT() != 0 {
		t.Errorf("TPOT = %v, want 0 for a single emitted token", r.TPOT())
	}
	if r.DecodeQueueDelay() != 0 {
		t.Errorf("DecodeQueueDelay = %v, want 0", r.DecodeQueueDelay())
	}
}

func TestAbortClampsEmitted(t *testing.T) {
	if r := buildAborted(t, 10, -3, 0.5, 0.6); r.tokensOut() != 0 {
		t.Errorf("negative emitted recorded as %d, want clamp to 0", r.tokensOut())
	}
	if r := buildAborted(t, 10, 25, 0.5, 0.6); r.tokensOut() != 10 {
		t.Errorf("emitted > planned recorded as %d, want clamp to 10", r.tokensOut())
	}
}

func TestCompletedRecordEmitsPlanned(t *testing.T) {
	r := buildRecord(t, 10, 1, 1.5, 2, 2.1, 2.9)
	if r.tokensOut() != 10 {
		t.Errorf("completed tokensOut = %d, want planned 10", r.tokensOut())
	}
}

// TestSummarizeSingleRecord: with one record every percentile is that
// record's own value, exact or sketched.
func TestSummarizeSingleRecord(t *testing.T) {
	for _, keep := range []int{0, 10} {
		rec := NewRecorder(SLO{TTFT: sim.Seconds(1), TPOT: sim.Seconds(0.1)}, keep)
		rec.Arrive(1, 100, 10, 1)
		rec.PrefillStart(1, 1.5)
		rec.FirstToken(1, 2)
		rec.DecodeStart(1, 2.1)
		rec.Complete(1, 2.9)
		r, s := rec.Completed()[0], rec.Summary()
		for name, got := range map[string]sim.Duration{"TTFTP50": s.TTFTP50, "TTFTP90": s.TTFTP90, "TTFTP99": s.TTFTP99} {
			if got != r.TTFT() {
				t.Errorf("keep %d: %s = %v, want %v", keep, name, got, r.TTFT())
			}
		}
		for name, got := range map[string]sim.Duration{"TPOTP50": s.TPOTP50, "TPOTP90": s.TPOTP90, "TPOTP99": s.TPOTP99} {
			if got != r.TPOT() {
				t.Errorf("keep %d: %s = %v, want %v", keep, name, got, r.TPOT())
			}
		}
		if s.DecodeQueueP99 != r.DecodeQueueDelay() {
			t.Errorf("keep %d: DecodeQueueP99 = %v, want %v", keep, s.DecodeQueueP99, r.DecodeQueueDelay())
		}
	}
}

func TestSummarizeNoNaN(t *testing.T) {
	// A summary with no completions must be all zeros — NaN poisons CSV
	// parsing the first time a fault plan empties a class.
	for _, keep := range []int{0, 10} {
		rec := NewRecorder(SLO{TTFT: sim.Seconds(1), TPOT: sim.Seconds(0.1)}, keep)
		rec.Arrive(1, 100, 10, 0)
		rec.Abort(1, 1, 0)
		s := rec.Summary()
		for name, v := range map[string]float64{
			"TTFTP50": s.TTFTP50.Seconds(), "TTFTP99": s.TTFTP99.Seconds(),
			"TPOTP50": s.TPOTP50.Seconds(), "TPOTP99": s.TPOTP99.Seconds(),
			"Attainment": s.Attainment, "ThroughputRPS": s.ThroughputRPS,
		} {
			if math.IsNaN(v) {
				t.Errorf("keep %d: empty Summary().%s is NaN", keep, name)
			}
		}
	}
}

func TestWriteRecordsCSVOutcomeColumns(t *testing.T) {
	rec := NewRecorder(SLO{}, 0)
	rec.Arrive(1, 100, 50, 0)
	rec.PrefillStart(1, 0.1)
	rec.FirstToken(1, 0.5)
	rec.DecodeStart(1, 0.6)
	rec.Abort(1, 1.4, 7)
	var b strings.Builder
	if err := WriteRecordsCSV(&b, rec.Aborted()); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header, row := recs[0], recs[1]
	n := len(header)
	if header[n-2] != "outcome" || header[n-1] != "emitted_tokens" {
		t.Fatalf("trailing header columns = %v, want outcome, emitted_tokens", header[n-2:])
	}
	if row[n-2] != "aborted" || row[n-1] != "7" {
		t.Errorf("trailing row columns = %v, want aborted, 7", row[n-2:])
	}
}
