package serve

import (
	"fmt"
	"math"

	"windserve/internal/metrics"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// Arrivals is the request front door: the one arrival chain both the
// single-testbed runner and the fleet router feed requests through, and
// the only place arrivals are validated. It keeps one pending arrival
// event at a time — each arrival pulls its successor from the source on
// demand — so a million-request source never has more than one arrival
// event scheduled, and the event callback (a method value built once)
// keeps the chain allocation-free.
//
// Each due arrival is recorded on the recorder, then handed to admit. The
// chain ends when the source dries up or yields an invalid arrival: a
// non-finite or out-of-order arrival time, a negative token count, or an
// ID still in flight. Err then names the offending request. The zero
// value is ready for Start.
type Arrivals struct {
	s     *sim.Simulator
	rec   *metrics.Recorder
	src   workload.Source
	admit func(w workload.Request)
	stop  func()
	fn    func()

	next  workload.Request
	open  bool
	count int
	last  sim.Time
	err   error
}

// Start opens the chain on s and schedules its first arrival. stop, if
// non-nil, runs once when the chain ends, cleanly or with an error.
func (a *Arrivals) Start(s *sim.Simulator, rec *metrics.Recorder, src workload.Source, admit func(workload.Request), stop func()) {
	*a = Arrivals{s: s, rec: rec, src: src, admit: admit, stop: stop}
	a.fn = a.arrive
	a.pull()
}

// Open reports whether an arrival is still pending.
func (a *Arrivals) Open() bool { return a.open }

// Count is how many arrivals were recorded and admitted.
func (a *Arrivals) Count() int { return a.count }

// Last is the latest admitted arrival time (0 before the first).
func (a *Arrivals) Last() sim.Time { return a.last }

// Err is the invalid arrival that ended the chain, or nil.
func (a *Arrivals) Err() error { return a.err }

// arrive records the due request and admits it, then chains the next.
func (a *Arrivals) arrive() {
	w := a.next
	if a.rec.InFlight(w.ID) {
		a.end(fmt.Errorf("request %d arrives at %v while a request with the same ID is still in flight; IDs must be unique",
			w.ID, w.Arrival))
		return
	}
	a.count++
	a.last = w.Arrival
	a.rec.Arrive(w.ID, w.PromptTokens, w.OutputTokens, a.s.Now())
	a.admit(w)
	a.pull()
}

// pull takes the next request from the source and schedules its arrival.
func (a *Arrivals) pull() {
	w, ok := a.src.Next()
	if !ok {
		a.end(nil)
		return
	}
	if err := a.check(w); err != nil {
		a.end(err)
		return
	}
	a.next, a.open = w, true
	a.s.At(w.Arrival, a.fn)
}

// check validates one request against the chain so far.
func (a *Arrivals) check(w workload.Request) error {
	switch t := float64(w.Arrival); {
	case math.IsNaN(t) || math.IsInf(t, 0):
		return fmt.Errorf("request %d arrives at %v; arrival times must be finite", w.ID, w.Arrival)
	case w.Arrival < a.last:
		return fmt.Errorf("request %d arrives at %v, before the previous arrival at %v; arrivals must be non-decreasing",
			w.ID, w.Arrival, a.last)
	case w.PromptTokens < 0 || w.OutputTokens < 0:
		return fmt.Errorf("request %d has %d prompt and %d output tokens; token counts must be non-negative",
			w.ID, w.PromptTokens, w.OutputTokens)
	}
	return nil
}

// end closes the chain.
func (a *Arrivals) end(err error) {
	a.open, a.err = false, err
	if a.stop != nil {
		a.stop()
	}
}
