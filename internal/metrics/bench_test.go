package metrics

import (
	"testing"

	"windserve/internal/sim"
)

// BenchmarkSummarize measures the per-row digest of a recorder that keeps
// every record — called once per (system, rate) point of every sweep
// exhibit.
func BenchmarkSummarize(b *testing.B) {
	rec := NewRecorder(SLO{TTFT: sim.Milliseconds(250), TPOT: sim.Milliseconds(100)}, 0)
	for i := 0; i < 600; i++ {
		id := uint64(i)
		arr := sim.Time(float64(i) * 0.25)
		first := arr.Add(sim.Milliseconds(80 + float64(i%37)))
		rec.Arrive(id, 200+i%300, 64+i%128, arr)
		rec.PrefillStart(id, arr.Add(sim.Milliseconds(5)))
		rec.FirstToken(id, first)
		rec.DecodeStart(id, first.Add(sim.Milliseconds(12)))
		rec.Complete(id, first.Add(sim.Seconds(2+float64(i%11)/10)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Summary()
	}
}

// BenchmarkOpenIDs measures the fault-recovery sampling frame: sorted
// in-flight ids under a realistically sized open set.
func BenchmarkOpenIDs(b *testing.B) {
	rec := NewRecorder(SLO{}, 0)
	for i := 0; i < 512; i++ {
		rec.Arrive(uint64(i*7919%100000), 100, 50, sim.Time(float64(i)*0.01))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.OpenIDs()
	}
}

// TestOpenIDsScratchReuse pins the no-allocation property after warm-up.
func TestOpenIDsScratchReuse(t *testing.T) {
	rec := NewRecorder(SLO{}, 0)
	for i := 0; i < 100; i++ {
		rec.Arrive(uint64(100-i), 10, 10, sim.Time(float64(i)))
	}
	ids := rec.OpenIDs() // warm the scratch
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not strictly ascending at %d: %d >= %d", i, ids[i-1], ids[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() { rec.OpenIDs() })
	if allocs > 0 {
		t.Fatalf("OpenIDs allocates %.1f objects/op after warm-up, want 0", allocs)
	}
}

// TestRecordsComeFromChunks: both recorder modes carve records from
// 256-record chunks, and a capped one reuses the records it recycled past
// its cap, so a run allocates far less than one object per request.
func TestRecordsComeFromChunks(t *testing.T) {
	const n = 20_000
	for _, keep := range []int{0, n / 4} {
		allocs := testing.AllocsPerRun(1, func() {
			rec := NewRecorder(SLO{}, keep)
			for i := uint64(0); i < n; i++ {
				rec.Arrive(i, 10, 5, 0)
				rec.Complete(i, 1)
			}
		})
		if per := allocs / n; per > 0.05 {
			t.Errorf("keep %d: %.3f allocations per request, want under 0.05", keep, per)
		}
	}
}
