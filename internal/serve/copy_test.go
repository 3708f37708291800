package serve

import (
	"runtime"
	"testing"
	"unsafe"

	"windserve/internal/engine"
	"windserve/internal/workload"
)

// These tests pin the life of a pooled KV copy record (kvCopy): a copy
// whose destination crashes under it re-routes exactly once, and the
// re-route's new copy can take the very record that just completed.

// distBed builds a DistServe cluster of np prefill and nd decode
// instances as RunDistServe wires it, without a workload.
func distBed(t *testing.T, np, nd int) *pd {
	t.Helper()
	cfg := cfg13B(t)
	cfg.NumPrefill, cfg.NumDecode = np, nd
	return bed(t, withoutMechanisms(cfg), "", false)
}

// arrive registers a request with the runner and returns it, unrouted.
func arrive(r *runner, id uint64, prompt, output int) *engine.Req {
	q := newFlight(workload.Request{ID: id, PromptTokens: prompt, OutputTokens: output})
	r.live[id] = q
	r.rec.Arrive(id, prompt, output, r.s.Now())
	return q
}

// decodesOn returns the index of the one decode instance running q, or
// -1 when none or several do.
func decodesOn(ins []*engine.Instance, q *engine.Req) int {
	at := -1
	for j, in := range ins {
		for _, x := range in.Running() {
			if x == q {
				if at >= 0 {
					return -1
				}
				at = j
			}
		}
	}
	return at
}

// TestDistServeDecodeCrashUnderCopy: with 1P/2D, the decode instance a
// prefilled request's KV is crossing to crashes while the payload is on
// the link. When the copy lands the request re-routes to the other decode
// instance, whose copy reuses the record, and completes once with no KV
// left anywhere.
func TestDistServeDecodeCrashUnderCopy(t *testing.T) {
	d := distBed(t, 1, 2)
	r := d.r
	q := arrive(r, 1, 1500, 40)
	d.prefillRR(q)
	for !(q.Phase == engine.PhaseTransferring && d.pdLink(0, 0).Busy()) && r.s.Step() {
	}
	if j := fl(q).di; j != 0 || d.decodes[0].KVOf(q) == nil {
		t.Fatalf("copy to decode 0 not under way: di=%d %v", j, q)
	}
	if len(d.copies) != 0 {
		t.Fatalf("%d pooled copy records while the only copy is in flight", len(d.copies))
	}
	d.crash(len(d.prefills) + 0)
	for q.Phase != engine.PhaseDecoding && r.s.Step() {
	}
	if at := decodesOn(d.decodes, q); at != 1 || fl(q).di != 1 {
		t.Fatalf("request decodes on %d (di %d), want the surviving decode 1", at, fl(q).di)
	}
	r.s.RunAll()
	if !q.Finished() || len(r.rec.Completed()) != 1 {
		t.Fatalf("request not completed exactly once: %v, %d completed", q, len(r.rec.Completed()))
	}
	if len(d.copies) != 1 {
		t.Errorf("%d copy records made for the copy and its re-route, want 1 reused", len(d.copies))
	}
	checkDrained(t, r.rec, d.ins)
}

// TestWindAsyncDecodeCrashUnderCopy: WindServe's async copy loses its
// destination. Mid-prefill, the crash drops the async transfer and the
// prefill's end serial-transfers to the survivor while the stale copy
// completes into nothing. After the prefill, on a link slow enough that
// the copy is still on it, the copy's landing re-routes the request. It
// completes once on the other decode instance with no KV left anywhere.
func TestWindAsyncDecodeCrashUnderCopy(t *testing.T) {
	for _, tc := range []struct {
		name       string
		degrade    float64 // link bandwidth fraction; 1 is healthy
		prefillEnd bool    // crash once the prefill is done
	}{
		{"mid-prefill", 1, false},
		{"after-prefill", 0.01, true},
	} {
		d := windBed(t, 1, 2)
		r := d.r
		d.degradeLinks(tc.degrade)
		q := arrive(r, 1, 1500, 40)
		f := fl(q)
		f.pi = 0
		d.prefills[0].EnqueuePrefill(q)
		for r.s.Step() {
			if f.async.stamp != 0 && f.async.prefillDone == tc.prefillEnd {
				break
			}
		}
		if ax := f.async; ax.stamp == 0 || ax.xferDone || ax.prefillDone != tc.prefillEnd || f.di != 0 {
			t.Fatalf("%s: async copy to decode 0 not under way: %+v, di %d", tc.name, ax, f.di)
		}
		d.crash(len(d.prefills) + 0)
		for q.Phase != engine.PhaseDecoding && r.s.Step() {
		}
		if at := decodesOn(d.decodes, q); at != 1 || f.di != 1 {
			t.Fatalf("%s: request decodes on %d (di %d), want the surviving decode 1",
				tc.name, at, f.di)
		}
		r.s.RunAll()
		if !q.Finished() || len(r.rec.Completed()) != 1 || f.recovered {
			t.Fatalf("%s: request not completed exactly once without a re-prefill: %v, %d completed, recovered=%v",
				tc.name, q, len(r.rec.Completed()), f.recovered)
		}
		if f.async != (asyncXfer{}) {
			t.Errorf("%s: async transfer left: %+v", tc.name, f.async)
		}
		checkDrained(t, r.rec, d.ins)
	}
}

// TestTestbedAllocsPerRequest is the per-request heap allocation budget
// of the testbed's arrival → prefill → KV copy → decode path, on DistServe
// and on WindServe, with the recorder that keeps every record and with
// the streaming one. Two stream sizes share their set-up cost, so the
// difference of their allocation counts is the streams' own. The one
// allocation left per request is its flight, which every request pays
// for: it must stay within the 256-byte size class. The chat row runs
// DistServe with the tiered prefix cache on multi-turn conversations,
// where every turn acquires, publishes and releases cached prefix blocks;
// its budget also covers each conversation's own chain and session state.
// The deadline row arms a TTFT deadline per request, which the shared
// deadline timers hold without a closure.
func TestTestbedAllocsPerRequest(t *testing.T) {
	if size := unsafe.Sizeof(flight{}); size > 256 {
		t.Errorf("a flight is %d bytes, past the 256-byte size class", size)
	}
	gpus := float64(cfg13B(t).TotalGPUs())
	shareGPT := func(n int) workload.Source {
		return workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: 3 * gpus}, 42).Source(n)
	}
	chat, err := workload.ScenarioByName("chat")
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []struct {
		name     string
		run      func(Config, workload.Source) (*Result, error)
		stream   bool
		prefix   bool
		deadline bool
		budget   float64
	}{
		{"DistServe", RunDistServeFrom, false, false, false, 1.25},
		{"WindServe", RunWindServeFrom, false, false, false, 1.25},
		{"DistServe streaming", RunDistServeFrom, true, false, false, 1.25},
		{"WindServe streaming", RunWindServeFrom, true, false, false, 1.25},
		{"WindServe, TTFT deadline", RunWindServeFrom, false, false, true, 1.25},
		{"DistServe chat, tiered prefix cache", RunDistServeFrom, false, true, false, 3},
	} {
		cfg := cfg13B(t)
		cfg.Stream.Enabled = sys.stream
		if sys.deadline {
			cfg.Shed.TTFTDeadline = 20 * cfg.SLO.TTFT
		}
		source := shareGPT
		if sys.prefix {
			cfg.Prefix = PrefixPolicy{Enabled: true, Tiered: true}
			source = func(n int) workload.Source { return chat.Source(n, gpus, 42) }
		}
		mallocs := func(n int) uint64 {
			src := source(n)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := sys.run(cfg, src)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Requests != n {
				t.Fatalf("%s: %d of %d requests completed", sys.name, res.Summary.Requests, n)
			}
			return after.Mallocs - before.Mallocs
		}
		small, large := mallocs(4_000), mallocs(16_000)
		per := float64(large-small) / 12_000
		t.Logf("%s: %.3f heap allocations per request (%d at 4k requests, %d at 16k)", sys.name, per, small, large)
		if per > sys.budget {
			t.Errorf("%s: %.3f heap allocations per request, budget %g", sys.name, per, sys.budget)
		}
	}
}
