package sim

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestCancelStaleAfterFire pins the event-pool safety contract: an
// EventID held past its event's firing must stay inert even after the
// underlying struct is recycled into a new, still-pending event.
func TestCancelStaleAfterFire(t *testing.T) {
	s := New()
	fired := 0
	id1 := s.Schedule(1, func() { fired++ })
	if !s.Step() {
		t.Fatal("no event fired")
	}
	// The struct behind id1 is now on the free list; this Schedule
	// recycles it as a fresh incarnation.
	id2 := s.Schedule(1, func() { fired++ })
	if s.Cancel(id1) {
		t.Fatal("stale Cancel of a fired event succeeded")
	}
	if !s.Step() {
		t.Fatal("recycled event did not fire — stale Cancel killed it")
	}
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
	if s.Cancel(id2) {
		t.Fatal("Cancel after fire should be a no-op")
	}
}

// TestCancelStaleAfterCancel does the same across a Cancel-driven recycle.
func TestCancelStaleAfterCancel(t *testing.T) {
	s := New()
	id1 := s.Schedule(1, func() {})
	if !s.Cancel(id1) {
		t.Fatal("first Cancel failed")
	}
	ran := false
	s.Schedule(1, func() { ran = true })
	if s.Cancel(id1) {
		t.Fatal("double Cancel succeeded against the recycled event")
	}
	s.RunAll()
	if !ran {
		t.Fatal("recycled event did not run")
	}
}

// TestSelfCancelDuringFire: a callback cancelling its own (already
// popped) event must be a no-op, and must not corrupt the free list.
func TestSelfCancelDuringFire(t *testing.T) {
	s := New()
	var id EventID
	id = s.Schedule(1, func() {
		if s.Cancel(id) {
			t.Error("self-Cancel during fire succeeded")
		}
	})
	s.RunAll()
	n := 0
	s.Schedule(1, func() { n++ })
	s.Schedule(2, func() { n++ })
	s.RunAll()
	if n != 2 {
		t.Fatalf("post-recycle events fired %d times, want 2", n)
	}
}

// TestPoolReusesEvents checks the free list actually eliminates steady-
// state allocation: schedule/fire cycles after warm-up allocate nothing.
func TestPoolReusesEvents(t *testing.T) {
	s := New()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(1, func() {})
		s.Step()
	})
	if allocs > 0 {
		t.Fatalf("schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkSimulatorScheduleFire measures the kernel's hottest path: one
// Schedule plus the Step that fires it.
func BenchmarkSimulatorScheduleFire(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(1, fn)
		s.Step()
	}
}

// BenchmarkSimulatorScheduleFireDeep is the same with a deep pending
// queue, so heap sift costs at realistic occupancy are visible.
func BenchmarkSimulatorScheduleFireDeep(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.Schedule(Duration(1+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(2048, fn)
		s.Step()
	}
}

// TestResizeReusesBuckets checks that calendar resizes keep their bucket
// storage: once warm, a cycle that grows the pending set through seven
// doublings and drains it again allocates nothing. The events are evenly
// spaced (at exact binary fractions), so every cycle fills the buckets
// alike and warm capacities suffice.
func TestResizeReusesBuckets(t *testing.T) {
	const n = 4096
	s := New()
	fn := func() {}
	cycle := func() {
		for i := 0; i < n; i++ {
			s.Schedule(Duration(i)/1024, fn)
		}
		s.RunAll()
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Fatalf("a grow-then-shrink cycle of %d events allocates %.1f objects, want 0", n, allocs)
	}
}

// TestResizeReusesBucketsRandomSpacing is TestResizeReusesBuckets under
// the spacing real traffic has: exponential gaps from a fixed seed, so
// buckets fill unevenly and each cycle's occupancy peaks differ. The
// buckets are lists threaded through the events, so a warm cycle still
// allocates nothing.
func TestResizeReusesBucketsRandomSpacing(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(7))
	at := make([]Duration, n)
	var sum Duration
	for i := range at {
		sum += Duration(rng.ExpFloat64() / 1024)
		at[i] = sum
	}
	s := New()
	fn := func() {}
	cycle := func() {
		for _, d := range at {
			s.Schedule(d, fn)
		}
		s.RunAll()
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Fatalf("a grow-then-shrink cycle of %d randomly spaced events allocates %.1f objects, want 0", n, allocs)
	}
}

// TestFillAllocatesPerChunk checks that events are carved from chunks:
// filling an empty simulator with n events allocates one chunk per
// eventChunk events, one bucket array per calendar doubling, and a
// constant rest (the simulator, its calendar, the width-sample scratch).
func TestFillAllocatesPerChunk(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(7))
	at := make([]Duration, n)
	for i := range at {
		at[i] = Duration(rng.Float64())
	}
	fn := func() {}
	allocs := testing.AllocsPerRun(5, func() {
		s := New()
		for _, d := range at {
			s.Schedule(d, fn)
		}
	})
	chunks := (n + eventChunk - 1) / eventChunk
	doublings := bits.Len(n/minBuckets) - 1
	if budget := chunks + doublings + 12; allocs > float64(budget) {
		t.Fatalf("filling with %d events allocates %.0f objects, budget %d (%d chunks, %d doublings)",
			n, allocs, budget, chunks, doublings)
	}
}
