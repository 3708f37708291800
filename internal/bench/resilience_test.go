package bench

import (
	"io"
	"reflect"
	"testing"
)

func TestExpResilienceShape(t *testing.T) {
	o := Options{Requests: 300, Seed: 42}
	rows, err := ExpResilience(o, io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 systems x {clean, faulted}
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		clean, faulted := rows[i], rows[i+1]
		// Losing half the decode capacity must not lose requests: every
		// non-shed request still reaches a terminal state.
		if faulted.Unfinished != 0 {
			t.Errorf("%s: %d requests unfinished after decode crash", faulted.System, faulted.Unfinished)
		}
		total := faulted.Completed + faulted.Aborted + faulted.Rejected + faulted.Unfinished
		if total != o.Requests {
			t.Errorf("%s: lifecycle counts sum to %d, want %d", faulted.System, total, o.Requests)
		}
		// The crash cannot improve things.
		if faulted.GoodputRPS > clean.GoodputRPS*1.01 {
			t.Errorf("%s: goodput improved under a crash: %.3f vs %.3f",
				faulted.System, faulted.GoodputRPS, clean.GoodputRPS)
		}
	}
	// The PD systems report orphan recovery (vLLM rows are 0 and 1).
	for _, i := range []int{3, 5} {
		if rows[i].Recovered == 0 {
			t.Errorf("%s: decode crash recovered no orphans", rows[i].System)
		}
	}
}

// TestStreamingKeepsRecordExhibitsExact: the exhibits that count or split
// completed requests print the same rows when the recorder keeps only 20
// records per outcome as when it keeps every one.
func TestStreamingKeepsRecordExhibitsExact(t *testing.T) {
	exact := Options{Requests: 300, Seed: 42}
	capped := Options{Requests: 300, Seed: 42, Stream: true, MaxRecords: 20}
	for _, exp := range []struct {
		name string
		run  func(Options) (any, error)
	}{
		{"ext-faults", func(o Options) (any, error) { return ExpResilience(o, io.Discard, nil) }},
		{"ext-shift", func(o Options) (any, error) { return ExpShift(o, io.Discard) }},
	} {
		want, err := exp.run(exact)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exp.run(capped)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streaming rows %+v\nexact rows     %+v", exp.name, got, want)
		}
	}
}
