package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the binary-heap pending set the kernel used before the
// calendar queue, kept as an executable specification of the (at, seq)
// total order for equivalence tests and as the baseline in the
// event-queue benchmarks.
type refHeap []*event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	ev.index = -1
	*h = old[:n]
	return ev
}

// TestCalendarHeapEquivalence drives the calendar queue and the reference
// heap through the same random push/cancel/pop scripts and checks they
// yield the exact same event at every pop — including FIFO order among
// equal timestamps, which the grid delays force constantly. The bimodal
// script is a fleet router's pending set: a dense near-term band next to
// deadline timers 10 s and 60 s out, which set the near-cursor width
// estimate apart from a uniform sample.
func TestCalendarHeapEquivalence(t *testing.T) {
	grid := []float64{0, 0, 0.5, 0.5, 1, 1, 1.5, 2, 10, 1e6, float64(Forever)}
	scripts := []struct {
		name  string
		delay func(rng *rand.Rand) float64
	}{
		{"grid+uniform", func(rng *rand.Rand) float64 {
			if rng.Float64() < 0.5 {
				return grid[rng.Intn(len(grid))]
			}
			return rng.Float64() * 100
		}},
		{"bimodal", func(rng *rand.Rand) float64 {
			switch x := rng.Float64(); {
			case x < 0.15:
				return 60
			case x < 0.2:
				return 10
			default:
				return rng.Float64() * 0.01
			}
		}},
	}
	for _, sc := range scripts {
		for seed := int64(0); seed < 25; seed++ {
			checkHeapEquivalence(t, sc.name, seed, sc.delay)
		}
	}
}

func checkHeapEquivalence(t *testing.T, script string, seed int64, delay func(*rand.Rand) float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cq := newCalendarQueue()
	var hq refHeap
	type pair struct{ c, h *event }
	live := map[uint64]pair{}
	var liveSeqs []uint64
	now := 0.0
	seq := uint64(0)
	for op := 0; op < 5000; op++ {
		x := rng.Float64()
		switch {
		case x < 0.55 || cq.n == 0:
			at := Time(now) + Time(delay(rng))
			ce := &event{at: at, seq: seq}
			he := &event{at: at, seq: seq}
			cq.push(ce)
			heap.Push(&hq, he)
			live[seq] = pair{ce, he}
			liveSeqs = append(liveSeqs, seq)
			seq++
		case x < 0.75 && len(liveSeqs) > 0:
			i := rng.Intn(len(liveSeqs))
			sq := liveSeqs[i]
			liveSeqs[i] = liveSeqs[len(liveSeqs)-1]
			liveSeqs = liveSeqs[:len(liveSeqs)-1]
			p := live[sq]
			delete(live, sq)
			cq.remove(p.c)
			heap.Remove(&hq, p.h.index)
		default:
			ce := cq.pop()
			he := heap.Pop(&hq).(*event)
			if ce.at != he.at || ce.seq != he.seq {
				t.Fatalf("%s seed %d op %d: calendar popped (at=%v seq=%d), heap popped (at=%v seq=%d)",
					script, seed, op, ce.at, ce.seq, he.at, he.seq)
			}
			now = float64(ce.at)
			delete(live, ce.seq)
			for i, sq := range liveSeqs {
				if sq == ce.seq {
					liveSeqs[i] = liveSeqs[len(liveSeqs)-1]
					liveSeqs = liveSeqs[:len(liveSeqs)-1]
					break
				}
			}
		}
		if cq.n != hq.Len() {
			t.Fatalf("%s seed %d op %d: calendar has %d events, heap has %d", script, seed, op, cq.n, hq.Len())
		}
	}
	// Drain: remaining events must come out in identical order.
	for cq.n > 0 {
		ce := cq.pop()
		he := heap.Pop(&hq).(*event)
		if ce.at != he.at || ce.seq != he.seq {
			t.Fatalf("%s seed %d drain: calendar popped (at=%v seq=%d), heap popped (at=%v seq=%d)",
				script, seed, ce.at, ce.seq, he.at, he.seq)
		}
	}
}

// scanMin is peek's specification: the pending minimum by direct search.
func scanMin(q *calendarQueue) *event {
	var best *event
	for _, bkt := range q.buckets {
		for _, ev := range bkt {
			if best == nil || ev.before(best) {
				best = ev
			}
		}
	}
	return best
}

// TestCalendarHeadCache pins the three ways a cached head can go stale: a
// push that sorts before it, cancelling it, and a resize while it is
// cached. After each, peek must return the true minimum.
func TestCalendarHeadCache(t *testing.T) {
	check := func(q *calendarQueue, what string) {
		t.Helper()
		if got, want := q.peek(), scanMin(q); got != want {
			t.Fatalf("%s: peek = %+v, want %+v", what, got, want)
		}
	}
	q := newCalendarQueue()
	a := &event{at: 5, seq: 0}
	q.push(a)
	check(q, "first push")

	b := &event{at: 3, seq: 1}
	q.push(b)
	check(q, "push ahead of the cached head")
	tie := &event{at: 3, seq: 2}
	q.push(tie)
	check(q, "push tying the cached head")

	q.peek()
	q.remove(b)
	check(q, "cancel the cached head")
	q.remove(tie)
	check(q, "cancel the next head")

	// Grow through several resizes with the head cached, every push later
	// than it, then shrink back by cancelling everything else.
	var rest []*event
	for i := 0; i < 200; i++ {
		ev := &event{at: Time(6 + i%17), seq: uint64(3 + i)}
		rest = append(rest, ev)
		q.push(ev)
		check(q, "push behind the cached head across a grow resize")
	}
	if len(q.buckets) <= minBuckets {
		t.Fatalf("200 pushes did not resize the calendar (%d buckets)", len(q.buckets))
	}
	for _, ev := range rest {
		q.remove(ev)
		check(q, "cancel behind the cached head across a shrink resize")
	}
	if len(q.buckets) != minBuckets {
		t.Fatalf("calendar did not shrink back: %d buckets", len(q.buckets))
	}
	if got := q.pop(); got != a || q.peek() != nil {
		t.Fatalf("pop = %+v, then peek non-nil; want the sole event %+v", got, a)
	}
}

// TestCalendarFarFuture pins the overflow path: events near Forever clamp
// to the overflow window and are reached through the direct-search
// fallback, in (at, seq) order, without disturbing near-term events.
func TestCalendarFarFuture(t *testing.T) {
	s := New()
	var got []int
	s.At(Forever/2, func() { got = append(got, 2) })
	s.At(Forever/4, func() { got = append(got, 1) })
	s.Schedule(1, func() { got = append(got, 0) })
	s.At(Forever/2, func() { got = append(got, 3) })
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("far-future events fired out of order: %v", got)
		}
	}
}

// TestCalendarSparseAfterBurst pins the shrink path: a large burst popped
// down to a handful of stragglers must keep firing in order as the bucket
// array contracts underneath them.
func TestCalendarSparseAfterBurst(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(3))
	var fired []Time
	for i := 0; i < 3000; i++ {
		s.Schedule(Duration(rng.Float64()), func() { fired = append(fired, s.Now()) })
	}
	for i := 0; i < 5; i++ {
		s.Schedule(Duration(1000+1000*float64(i)), func() { fired = append(fired, s.Now()) })
	}
	s.RunAll()
	if len(fired) != 3005 {
		t.Fatalf("fired %d events, want 3005", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("time went backwards at %d: %v < %v", i, fired[i], fired[i-1])
		}
	}
}

// benchDelays returns a fixed table of pseudo-random delays so the
// benchmark loop pays no rng cost.
func benchDelays(n int, scale float64) []Time {
	rng := rand.New(rand.NewSource(11))
	out := make([]Time, n)
	for i := range out {
		out[i] = Time(rng.Float64() * scale)
	}
	return out
}

// BenchmarkEventQueueHeap10k / BenchmarkEventQueueCalendar10k measure the
// classic hold model (pop the minimum, reinsert at now+delay) with 10k
// pending events — the occupancy a mega-run's deadline timers and
// per-instance iteration events produce. The heap pays O(log n) sifts per
// operation; the calendar queue is O(1) amortized.
func BenchmarkEventQueueHeap10k(b *testing.B) {
	delays := benchDelays(4096, 20)
	hq := make(refHeap, 0, 10001)
	for i := 0; i < 10000; i++ {
		heap.Push(&hq, &event{at: delays[i&4095], seq: uint64(i)})
	}
	seq := uint64(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := heap.Pop(&hq).(*event)
		ev.at += delays[i&4095]
		ev.seq = seq
		seq++
		heap.Push(&hq, ev)
	}
}

func BenchmarkEventQueueCalendar10k(b *testing.B) {
	delays := benchDelays(4096, 20)
	cq := newCalendarQueue()
	for i := 0; i < 10000; i++ {
		cq.push(&event{at: delays[i&4095], seq: uint64(i)})
	}
	seq := uint64(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := cq.pop()
		ev.at += delays[i&4095]
		ev.seq = seq
		seq++
		cq.push(ev)
	}
}

// BenchmarkEventQueueBimodal is the hold model on a fleet router's pending
// set: 64 near-term events firing a few hundred microseconds apart next
// to 13,400 deadline timers 10 s and 60 s out. A bucket width sampled
// uniformly from this population is set by the timers and piles the
// near-term events into the cursor's bucket; the near-cursor estimate
// keeps each pop O(1). Gated at 0 allocs/op in CI.
func BenchmarkEventQueueBimodal(b *testing.B) {
	const near, deadlines, failovers = 64, 11500, 1900
	delays := benchDelays(4096, 0.02)
	cq := newCalendarQueue()
	// The low bit of seq tags the class: 0 near-term, 1 timer. A timer
	// re-arms at its own distance.
	var seq uint64
	push := func(at Time, timer uint64) {
		cq.push(&event{at: at, seq: seq<<1 | timer})
		seq++
	}
	// The band exists from the start and the timers are armed after it,
	// so every resize sees both populations, as in a live run.
	for i := 0; i < near; i++ {
		push(delays[i], 0)
	}
	for i := 0; i < deadlines; i++ {
		push(Time(i)*60/deadlines, 1)
	}
	for i := 0; i < failovers; i++ {
		push(Time(i)*10/failovers, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := cq.pop()
		d := delays[i&4095]
		if ev.seq&1 == 1 {
			d = 60
		}
		ev.at += d
		ev.seq = seq<<1 | ev.seq&1
		seq++
		cq.push(ev)
	}
}

// BenchmarkServeSteady is the whole-kernel steady state the CI
// alloc-budget job gates on: a simulator holding 10k pending events doing
// schedule+fire cycles must run allocation-free.
func BenchmarkServeSteady(b *testing.B) {
	s := New()
	fn := func() {}
	delays := benchDelays(4096, 20)
	for i := 0; i < 10000; i++ {
		s.Schedule(Duration(delays[i&4095]), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(20, fn)
		s.Step()
	}
}
