package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refHeap is the binary-heap pending set the kernel used before the
// calendar queue, kept as an executable specification of the (at, seq)
// total order for equivalence tests and as the baseline in the
// event-queue benchmarks. Its events carry their own heap index.
type refHeap []*refEvent

type refEvent struct {
	event
	index int // position in the heap, -1 once popped or removed
}

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(&h[j].event) }
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
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

// pop removes and returns the calendar's next event in (at, seq) order.
// The kernel merges peek with its same-instant lane instead.
func (q *calendarQueue) pop() *event {
	ev := q.peek()
	if ev != nil {
		q.remove(ev)
	}
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
	type pair struct {
		c *event
		h *refEvent
	}
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
			he := &refEvent{event: event{at: at, seq: seq}}
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
			he := heap.Pop(&hq).(*refEvent)
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
		he := heap.Pop(&hq).(*refEvent)
		if ce.at != he.at || ce.seq != he.seq {
			t.Fatalf("%s seed %d drain: calendar popped (at=%v seq=%d), heap popped (at=%v seq=%d)",
				script, seed, ce.at, ce.seq, he.at, he.seq)
		}
	}
}

// scanMin is peek's specification: the pending minimum by direct search.
func scanMin(q *calendarQueue) *event {
	var best *event
	for _, h := range q.buckets {
		for ev := h; ev != nil; ev = ev.next {
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
		heap.Push(&hq, &refEvent{event: event{at: delays[i&4095], seq: uint64(i)}})
	}
	seq := uint64(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := heap.Pop(&hq).(*refEvent)
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

// refSim is a simulator over the reference heap alone: no lane, every
// event in one (at, seq) order. It mirrors the kernel's Run, RunWindow
// and Halt semantics for TestLaneKernelOrder.
type refSim struct {
	now    Time
	seq    uint64
	h      refHeap
	halted bool
}

func (r *refSim) Now() Time    { return r.now }
func (r *refSim) Pending() int { return r.h.Len() }
func (r *refSim) Halt()        { r.halted = true }

func (r *refSim) Schedule(d Duration, fn func()) func() bool {
	ev := &refEvent{event: event{at: r.now.Add(d), seq: r.seq, fn: fn}}
	r.seq++
	heap.Push(&r.h, ev)
	return func() bool {
		if ev.index < 0 {
			return false
		}
		heap.Remove(&r.h, ev.index)
		return true
	}
}

func (r *refSim) Step() bool {
	if r.h.Len() == 0 {
		return false
	}
	ev := heap.Pop(&r.h).(*refEvent)
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refSim) NextAt() (Time, bool) {
	if r.h.Len() == 0 {
		return 0, false
	}
	return r.h[0].at, true
}

func (r *refSim) Run(until Time) {
	r.halted = false
	for !r.halted && r.h.Len() > 0 {
		if r.h[0].at > until {
			r.now = until
			return
		}
		r.Step()
	}
}

func (r *refSim) RunWindow(end Time) {
	r.halted = false
	for !r.halted && r.h.Len() > 0 && r.h[0].at < end {
		r.Step()
	}
	if end > r.now {
		r.now = end
	}
}

// kernelUnderTest is the surface TestLaneKernelOrder drives on both the
// kernel and refSim.
type kernelUnderTest interface {
	Now() Time
	Pending() int
	Halt()
	Schedule(d Duration, fn func()) (cancel func() bool)
	Step() bool
	NextAt() (Time, bool)
	Run(until Time)
	RunWindow(end Time)
}

type simUnderTest struct{ *Simulator }

func (s simUnderTest) Schedule(d Duration, fn func()) func() bool {
	id := s.Simulator.Schedule(d, fn)
	return func() bool { return s.Cancel(id) }
}

// laneScript drives one kernel through a seeded random stream and
// returns the labels of the events it fired, in order, interleaved with
// the clock and pending count after every driver operation.
func laneScript(k kernelUnderTest, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	type pending struct {
		label  int
		cancel func() bool
	}
	var live []pending
	forget := func(label int) {
		for i, p := range live {
			if p.label == label {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				return
			}
		}
	}
	delay := func() Duration {
		switch x := rng.Float64(); {
		case x < 0.4:
			return 0
		case x < 0.7:
			return Duration([]float64{0.25, 0.5, 1, 2}[rng.Intn(4)])
		default:
			return Duration(rng.Float64() * 3)
		}
	}
	next := 0
	// Halt is only exercised inside Run: a RunWindow halted early would
	// park the clock past events still pending, which no kernel allows.
	halting := false
	var schedule func(d Duration)
	schedule = func(d Duration) {
		label := next
		next++
		cancel := k.Schedule(d, func() {
			forget(label)
			log = append(log, fmt.Sprintf("fire %d at %v", label, k.Now()))
			// Children, zero-delay ones among them, scheduled from inside
			// the callback; a child cancelled at once is a lane tombstone.
			for n := rng.Intn(3); n > 0; n-- {
				schedule(delay())
				if rng.Float64() < 0.15 {
					p := live[len(live)-1]
					forget(p.label)
					log = append(log, fmt.Sprintf("cancel child %d: %v", p.label, p.cancel()))
				}
			}
			if len(live) > 0 && rng.Float64() < 0.2 {
				p := live[rng.Intn(len(live))]
				forget(p.label)
				log = append(log, fmt.Sprintf("cancel %d: %v", p.label, p.cancel()))
			}
			if halting && rng.Float64() < 0.05 {
				k.Halt()
			}
		})
		live = append(live, pending{label, cancel})
	}
	for i := 0; i < 16; i++ {
		schedule(delay())
	}
	for op := 0; op < 400; op++ {
		switch x := rng.Float64(); {
		case x < 0.45:
			k.Step()
		case x < 0.6:
			// Park the clock on a window boundary, as the shard executor
			// does: later zero-delay events share that instant with
			// calendar events already due at it.
			k.RunWindow(k.Now() + Time(delay()))
		case x < 0.7:
			// A Halt here leaves same-instant events in the lane.
			halting = true
			k.Run(k.Now() + Time(delay()))
			halting = false
		case x < 0.9 || len(live) == 0:
			schedule(delay())
		default:
			p := live[rng.Intn(len(live))]
			forget(p.label)
			log = append(log, fmt.Sprintf("cancel %d: %v", p.label, p.cancel()))
		}
		at, ok := k.NextAt()
		log = append(log, fmt.Sprintf("op %d: now %v pending %d next %v %v", op, k.Now(), k.Pending(), at, ok))
	}
	k.Run(Forever)
	return append(log, fmt.Sprintf("drained: now %v pending %d", k.Now(), k.Pending()))
}

// TestLaneKernelOrder checks the kernel with its same-instant lane against
// the reference heap: zero-delay schedules made from callbacks, cancels of
// lane events, lane and calendar events sharing a timestamp, and RunWindow
// parking must fire, cancel and count exactly as one (at, seq) heap does.
func TestLaneKernelOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		got := laneScript(simUnderTest{New()}, seed)
		want := laneScript(&refSim{}, seed)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d step %d: kernel %q, reference %q", seed, i, g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: kernel logged %d steps, reference %d", seed, len(got), len(want))
		}
	}
}

// TestLaneAfterHorizonRewind pins the lane's one-instant rule: Run with a
// horizon behind the clock rewinds it while the lane still holds events
// for the old instant, so an event for the new instant must not queue
// behind them.
func TestLaneAfterHorizonRewind(t *testing.T) {
	s := New()
	var got []string
	s.Schedule(1, func() { got = append(got, "first") })
	s.Schedule(1, func() { got = append(got, "calendar") })
	s.Step()
	s.Schedule(0, func() { got = append(got, "lane") })
	s.Run(0.5)
	s.Schedule(0, func() { got = append(got, "rewound") })
	s.RunAll()
	if want := "[first rewound calendar lane]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}
