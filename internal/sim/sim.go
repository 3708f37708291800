// Package sim provides a deterministic discrete-event simulation kernel.
//
// All WindServe experiments run on virtual time: instances schedule
// "iteration complete" events, transfer engines schedule "copy done" events,
// and workload generators schedule request arrivals. The kernel guarantees a
// total order over events (time, then insertion sequence), so a run with a
// fixed seed is bit-for-bit reproducible.
//
// The kernel allocates nothing per event once warm: events are carved from
// chunks and recycled through a free list, the calendar's buckets are
// lists threaded through the events, and Timers gives constant-delay
// timers one shared callback instead of a closure each.
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration float64

// Forever is a time later than any event a simulation will ever schedule.
const Forever Time = math.MaxFloat64 / 4

// MinPeriod is the shortest positive period a recurring timer may have.
// A period far below it costs (busy time / period) events, so a run with
// one in practice never ends.
const MinPeriod Duration = 1e-3

// Seconds constructs a Duration from a float64 number of seconds.
func Seconds(s float64) Duration { return Duration(s) }

// Milliseconds constructs a Duration from milliseconds.
func Milliseconds(ms float64) Duration { return Duration(ms / 1e3) }

// Microseconds constructs a Duration from microseconds.
func Microseconds(us float64) Duration { return Duration(us / 1e6) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Milliseconds returns the duration in milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) * 1e3 }

func (t Time) String() string     { return fmt.Sprintf("%.6fs", float64(t)) }
func (d Duration) String() string { return fmt.Sprintf("%.3fms", float64(d)*1e3) }

// event is a scheduled callback. Events are pooled: once fired or
// cancelled, the struct goes on the simulator's free list and is reused
// by a later Schedule. gen distinguishes the incarnations, so an EventID
// held across a recycle can never cancel the wrong event.
type event struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among same-time events
	fn    func()
	epoch int64 // absolute calendar-bucket number at insertion width
	// next and prev link the event into its calendar bucket's list; next
	// also links the free list.
	next, prev *event
	bucket     int    // owning bucket, fixed by epoch & mask; laneBucket in the lane
	gen        uint64 // incarnation counter, bumped on every recycle
}

// before reports whether e fires ahead of other in the kernel's total
// order: time first, then insertion sequence (FIFO among ties).
func (e *event) before(other *event) bool {
	if e.at != other.at {
		return e.at < other.at
	}
	return e.seq < other.seq
}

// calendarQueue is the pending-event set, organized as a calendar (bucket)
// queue (Brown, CACM 1988): virtual time is cut into windows of `width`
// seconds, window k maps to bucket k mod nbuckets, and a cursor sweeps
// windows in order. With the bucket count resized to track the event
// population, Schedule, Cancel, and pop are all O(1) amortized — against
// the binary heap's O(log n) — which is what makes million-request
// horizons with tens of thousands of pending events affordable.
//
// Ordering is exact, not approximate: an event's window is its integer
// epoch floor(at/width), the in-window test compares epochs (never
// accumulated float boundaries), and within a window the minimum is chosen
// by (at, seq) — so firing order, including FIFO among equal timestamps,
// is identical to the heap's total order.
//
// Each bucket is an intrusive doubly-linked list threaded through the
// events themselves, so placing, unlinking and re-placing an event never
// allocates. Order within a bucket carries no meaning: peek picks by
// (at, seq) and estimateWidth sorts its sample.
type calendarQueue struct {
	buckets []*event // list heads
	mask    int      // len(buckets)-1; len is a power of two
	n       int
	width   Time
	// curEpoch is the window the sweep cursor is on. Invariant: no pending
	// event has epoch < curEpoch.
	curEpoch int64
	// head caches peek's answer, nil when unknown. Only a push that sorts
	// before it or its own removal can change the minimum, so the kernel's
	// peek-then-pop scans the cursor's bucket once per event, not twice.
	// Invariant: head != nil implies head.epoch == curEpoch.
	head *event
	// sample is resize's scratch for width estimation.
	sample []float64
}

const (
	minBuckets = 16
	// maxEpoch is the clamped window for events so far in the future that
	// floor(at/width) overflows — e.g. horizon guards near Forever. They
	// are only ever reached through the direct-search fallback, which
	// compares (at, seq) exactly, so sharing one clamped window is safe.
	maxEpoch = int64(1) << 62
)

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		buckets: make([]*event, minBuckets),
		mask:    minBuckets - 1,
		width:   1,
	}
}

// epochOf maps a timestamp to its window at the current width.
func (q *calendarQueue) epochOf(at Time) int64 {
	e := math.Floor(float64(at) / float64(q.width))
	if !(e < float64(maxEpoch)) { // also catches +Inf/NaN from extreme at
		return maxEpoch
	}
	if e < 0 {
		return 0
	}
	return int64(e)
}

// push inserts an event, rewinding the cursor if it lands before it.
func (q *calendarQueue) push(ev *event) {
	q.place(ev)
	q.n++
	if q.n == 1 || ev.epoch < q.curEpoch {
		q.curEpoch = ev.epoch
	}
	if q.n == 1 || (q.head != nil && ev.before(q.head)) {
		q.head = ev
	}
	if q.n > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// place computes the event's window at the current width and pushes it
// onto its bucket's list.
func (q *calendarQueue) place(ev *event) {
	ev.epoch = q.epochOf(ev.at)
	b := int(ev.epoch) & q.mask
	ev.bucket = b
	h := q.buckets[b]
	ev.prev, ev.next = nil, h
	if h != nil {
		h.prev = ev
	}
	q.buckets[b] = ev
}

// remove unlinks a pending event from its bucket in O(1).
func (q *calendarQueue) remove(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		q.buckets[ev.bucket] = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	q.n--
	if ev == q.head {
		q.head = nil
	}
	if q.n < len(q.buckets)/2 && len(q.buckets) > minBuckets {
		q.resize(len(q.buckets) / 2)
	}
}

// peek returns the next event in (at, seq) order without removing it. The
// cursor advances past empty windows as a side effect; if a whole year
// (every bucket once) is swept without a hit, the pending set is sparse
// relative to the cursor and a direct minimum search jumps the cursor to
// wherever the events actually are. The answer is cached in head.
func (q *calendarQueue) peek() *event {
	if q.head != nil || q.n == 0 {
		return q.head
	}
	for i := 0; i <= q.mask; i++ {
		var best *event
		for ev := q.buckets[int(q.curEpoch)&q.mask]; ev != nil; ev = ev.next {
			if ev.epoch == q.curEpoch && (best == nil || ev.before(best)) {
				best = ev
			}
		}
		if best != nil {
			q.head = best
			return best
		}
		q.curEpoch++
	}
	var best *event
	for _, h := range q.buckets {
		for ev := h; ev != nil; ev = ev.next {
			if best == nil || ev.before(best) {
				best = ev
			}
		}
	}
	q.curEpoch = best.epoch
	q.head = best
	return best
}

// resize rebuilds the calendar with nb buckets and a width re-estimated
// from the current population's spacing, keeping amortized bucket
// occupancy O(1) as the pending count grows and shrinks. The minimum it
// finds on the way refills the head cache. The pending events are chained
// into one list through next and re-placed from it, and the bucket array
// keeps its storage across a shrink, so a warm resize allocates nothing.
func (q *calendarQueue) resize(nb int) {
	if nb < minBuckets {
		nb = minBuckets
	}
	if w := q.estimateWidth(); w > 0 {
		q.width = w
	}
	var all *event
	for i, ev := range q.buckets {
		for ev != nil {
			next := ev.next
			ev.next, all = all, ev
			ev = next
		}
		q.buckets[i] = nil
	}
	if cap(q.buckets) >= nb {
		q.buckets = q.buckets[:nb] // the spare buckets are empty
	} else {
		q.buckets = make([]*event, nb)
	}
	q.mask = nb - 1
	var min *event
	for ev := all; ev != nil; {
		next := ev.next
		q.place(ev)
		if min == nil || ev.before(min) {
			min = ev
		}
		ev = next
	}
	if min != nil {
		q.curEpoch = min.epoch
	}
	q.head = min
}

// estimateWidth estimates a bucket width from the median positive gap
// between pending-event timestamps. The sample is the events nearest the
// cursor: whole windows swept from curEpoch until widthSample events are
// collected or a full year has been swept, because those are the events
// the cursor will pop next. A uniform sample would let a crowd of
// far-future timers (TTFT deadlines a minute out) set a width that piles
// dozens of near-term events into the cursor's bucket. The median keeps
// one outlier gap from stretching every bucket; the factor 4 keeps
// occupancy around a few events per swept window. Returns 0 when no
// estimate is possible (fewer than two distinct timestamps), in which case
// the caller keeps the current width.
func (q *calendarQueue) estimateWidth() Time {
	const widthSample = 64
	ts := q.sample[:0]
	for i, e := 0, q.curEpoch; i <= q.mask && len(ts) < widthSample; i, e = i+1, e+1 {
		for ev := q.buckets[int(e)&q.mask]; ev != nil; ev = ev.next {
			if ev.epoch == e {
				ts = append(ts, float64(ev.at))
			}
		}
	}
	q.sample = ts
	sort.Float64s(ts)
	gaps := 0
	for i := 1; i < len(ts); i++ {
		if g := ts[i] - ts[i-1]; g > 0 {
			ts[gaps] = g // reuse the prefix for the positive gaps
			gaps++
		}
	}
	if gaps == 0 {
		return 0
	}
	sort.Float64s(ts[:gaps])
	w := 4 * ts[gaps/2]
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return 0
	}
	return Time(w)
}

// EventID identifies a scheduled event so it can be cancelled. The id
// captures the event's incarnation, so holding one past the event's
// firing (after which the struct may be recycled into an unrelated
// event) is safe: Cancel on a stale id is a no-op.
type EventID struct {
	ev  *event
	gen uint64
}

// Valid reports whether the id refers to a (possibly already fired) event.
func (id EventID) Valid() bool { return id.ev != nil }

// laneBucket marks an event queued in the simulator's same-instant lane
// rather than in a calendar bucket.
const laneBucket = -1

// laneEntry is one event in the same-instant lane, with the incarnation it
// was queued under. Cancelling a lane event recycles it, which bumps its
// gen and leaves the entry behind as a tombstone the lane skips.
type laneEntry struct {
	ev  *event
	gen uint64
}

// Simulator is a single-threaded discrete-event scheduler.
// The zero value is not usable; call New.
//
// Events scheduled for the current instant (zero-delay kicks, a pass's
// follow-ups) skip the calendar: they go to a FIFO lane. Every lane event
// carries a larger seq than anything already pending and all share the
// lane's instant, so the lane is sorted by (at, seq) and the earliest
// event overall is the earlier of the lane's front and the calendar's
// head. Firing order is exactly the calendar-only order.
type Simulator struct {
	now       Time
	q         *calendarQueue
	seq       uint64
	fired     uint64
	lastFired Time
	halted    bool
	// lane holds the same-instant events from laneHead on, all at laneAt;
	// laneN counts the live ones among them.
	lane     []laneEntry
	laneHead int
	laneN    int
	laneAt   Time
	// free lists the fired and cancelled event structs through their next
	// links, for reuse by the next Schedule. chunk holds the events carved
	// but never used yet: alloc takes from free first and from chunk
	// next, and allocates a new chunk of eventChunk events only when both
	// are empty, so a run makes one allocation per eventChunk events of
	// peak population and none on the kernel's hottest path.
	free  *event
	chunk []event
}

// eventChunk is how many events alloc carves from one allocation.
const eventChunk = 256

// New returns an empty simulator at time 0.
func New() *Simulator {
	return &Simulator{q: newCalendarQueue()}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns how many events have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of scheduled-but-unfired events.
func (s *Simulator) Pending() int { return s.q.n + s.laneN }

// Schedule runs fn after delay d (>= 0). Scheduling in the past panics,
// since it indicates a cost-model bug rather than a recoverable condition.
func (s *Simulator) Schedule(d Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now.Add(d), fn)
}

// At runs fn at absolute time t (>= Now).
func (s *Simulator) At(t Time, fn func()) EventID {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := s.alloc()
	ev.at, ev.seq, ev.fn = t, s.seq, fn
	s.seq++
	if t == s.now && (s.laneN == 0 || s.laneAt == t) {
		s.pushLane(ev)
	} else {
		s.q.push(ev)
	}
	return EventID{ev: ev, gen: ev.gen}
}

// pushLane appends an event for the current instant to the lane, sliding
// the live entries down first rather than growing a lane whose front has
// been consumed.
func (s *Simulator) pushLane(ev *event) {
	if len(s.lane) == cap(s.lane) && s.laneHead > 0 {
		n := copy(s.lane, s.lane[s.laneHead:])
		clear(s.lane[n:])
		s.lane, s.laneHead = s.lane[:n], 0
	}
	ev.bucket = laneBucket
	s.lane = append(s.lane, laneEntry{ev: ev, gen: ev.gen})
	s.laneN++
	s.laneAt = ev.at
}

// laneFront returns the lane's first live event, dropping the tombstones
// ahead of it, or nil.
func (s *Simulator) laneFront() *event {
	for s.laneN > 0 {
		e := s.lane[s.laneHead]
		if e.ev.gen == e.gen {
			return e.ev
		}
		s.lane[s.laneHead] = laneEntry{}
		s.laneHead++
	}
	return nil
}

// unlinkLane takes a live event out of the lane's count; the lane is
// emptied, tombstones included, once none is left.
func (s *Simulator) unlinkLane() {
	s.laneN--
	if s.laneN == 0 {
		clear(s.lane)
		s.lane, s.laneHead = s.lane[:0], 0
	}
}

// next returns the earliest pending event in (at, seq) order, or nil.
func (s *Simulator) next() *event {
	c := s.q.peek()
	if l := s.laneFront(); l != nil && (c == nil || l.before(c)) {
		return l
	}
	return c
}

// alloc takes an event off the free list, or carves the first incarnation
// of one from the current chunk.
func (s *Simulator) alloc() *event {
	if ev := s.free; ev != nil {
		s.free, ev.next = ev.next, nil
		return ev
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]event, eventChunk)
	}
	ev := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return ev
}

// recycle retires an event to the free list. Bumping gen first
// invalidates every outstanding EventID for this incarnation, so an event
// whose id still matches is pending.
func (s *Simulator) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.next, s.free = s.free, ev
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (s *Simulator) Cancel(id EventID) bool {
	if id.ev == nil || id.ev.gen != id.gen {
		return false
	}
	if id.ev.bucket == laneBucket {
		s.unlinkLane()
	} else {
		s.q.remove(id.ev)
	}
	s.recycle(id.ev)
	return true
}

// Halt stops the run loop after the current event returns.
func (s *Simulator) Halt() { s.halted = true }

// Step fires the single earliest pending event, if any, advancing the clock.
// It reports whether an event fired.
func (s *Simulator) Step() bool {
	ev := s.next()
	if ev == nil {
		return false
	}
	if ev.bucket == laneBucket {
		s.lane[s.laneHead] = laneEntry{}
		s.laneHead++
		s.unlinkLane()
	} else {
		s.q.remove(ev)
	}
	if ev.at < s.now {
		panic("sim: time went backwards")
	}
	s.now = ev.at
	s.lastFired = ev.at
	s.fired++
	fn := ev.fn
	// Recycle before firing: the callback's own Schedule calls may reuse
	// the struct immediately, and the gen bump keeps any EventID the
	// callback still holds for *this* firing inert.
	s.recycle(ev)
	fn()
	return true
}

// Run fires events in order until no events remain, the horizon is passed,
// or Halt is called. The clock is left at the last fired event (or at the
// horizon, whichever is smaller, if events remain beyond it).
func (s *Simulator) Run(until Time) {
	s.halted = false
	for !s.halted {
		next := s.next()
		if next == nil {
			return
		}
		if next.at > until {
			s.now = until
			return
		}
		s.Step()
	}
}

// RunAll fires all events until the queue drains or Halt is called.
func (s *Simulator) RunAll() { s.Run(Forever) }

// NextAt returns the time of the earliest pending event, if any.
func (s *Simulator) NextAt() (Time, bool) {
	next := s.next()
	if next == nil {
		return 0, false
	}
	return next.at, true
}

// LastFired returns the time of the most recently fired event (0 if none
// has fired). Unlike Now, it never reflects a Run/RunWindow horizon the
// clock was merely advanced to.
func (s *Simulator) LastFired() Time { return s.lastFired }

// RunWindow fires events strictly before end and leaves the clock exactly
// at end. It is the shard executor's primitive: a window [start, end) is
// exhausted and the clock parked on the boundary so cross-shard messages
// delivered at >= end can be scheduled without violating At's no-past rule.
func (s *Simulator) RunWindow(end Time) {
	s.halted = false
	for !s.halted {
		next := s.next()
		if next == nil || next.at >= end {
			break
		}
		s.Step()
	}
	if end > s.now {
		s.now = end
	}
}
