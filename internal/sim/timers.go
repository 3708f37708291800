package sim

import "fmt"

// Timers is a queue of one-shot timers that share a constant delay and a
// fire function, and cost no closure per timer: Add appends its value to
// a FIFO and schedules the one pump method value, bound at construction.
//
// Each timer still gets its own event, scheduled at the moment a closure
// would be, so it keeps the exact (at, seq) slot a closure would have.
// Pairing the k-th pump event to fire with the k-th Add is exact because
// the delay is constant and the clock never goes back: the timers' due
// times grow with Add order, and the kernel fires equal times in seq
// order, which is Add order too. Add panics if a rewound clock (Run with
// a horizon behind Now) would break that while timers are armed. Timers
// are never cancelled; a fire function checks at firing whether its
// timer is stale.
type Timers[T any] struct {
	s    *Simulator
	d    Duration
	fire func(T)
	pump func()
	// q holds the armed timers' values from head on, in Add order.
	q    []T
	head int
	last Time // due time of the latest Add
}

// NewTimers returns a timer queue on s whose every timer fires d after
// its Add, calling fire with the value it was added with.
func NewTimers[T any](s *Simulator, d Duration, fire func(T)) *Timers[T] {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative timer delay %v", d))
	}
	t := &Timers[T]{s: s, d: d, fire: fire}
	t.pump = t.next
	return t
}

// Add arms a timer that calls fire(v) one delay from now.
func (t *Timers[T]) Add(v T) {
	at := t.s.Now().Add(t.d)
	if at < t.last && t.head < len(t.q) {
		panic(fmt.Sprintf("sim: timer due at %v before an earlier one due at %v", at, t.last))
	}
	t.last = at
	if len(t.q) == cap(t.q) && t.head > 0 && 2*t.head >= len(t.q) {
		n := copy(t.q, t.q[t.head:])
		clear(t.q[n:])
		t.q, t.head = t.q[:n], 0
	}
	t.q = append(t.q, v)
	t.s.At(at, t.pump)
}

// next is the body of every timer event: it fires the front timer.
func (t *Timers[T]) next() {
	v := t.q[t.head]
	var zero T
	t.q[t.head] = zero
	if t.head++; t.head == len(t.q) {
		t.q, t.head = t.q[:0], 0
	}
	t.fire(v)
}
