// Package shard runs N sim.Simulator instances in lockstep windows with a
// conservative lookahead barrier, so loosely-coupled actors (fleet router,
// replicas) can be simulated on separate goroutines while producing output
// byte-identical to a single sequential event loop.
//
// # Model
//
// Time is cut into windows whose width is bounded by the lookahead L — the
// minimum virtual latency of any cross-shard message. Every shard executes
// the same window concurrently, each on its own simulator. Actors within a
// window communicate across shards only via Send, which requires
// delay >= L: a message sent at t inside a window ending at wend satisfies
// t >= tmin (the global minimum pending event time when the window was
// opened) and therefore delivers at t+delay >= tmin+L >= wend, i.e. never
// inside the window being executed, so no shard can observe an effect
// before the barrier that publishes it.
//
// Each window end is the Chandy–Misra earliest-output-time bound:
// outboxes are empty at every window start, so no shard can emit a
// cross-shard effect before tmin+L, and the window runs to exactly
// wend = tmin+L. That end is a function of (tmin, L) only — global,
// shard-count-invariant quantities — so the window sequence, and therefore
// all output, is identical at any shard count. Windows whose in-window
// events all live on a single shard skip the worker barrier: the
// coordinating goroutine executes the window itself (workers only watch
// the window generation between handshakes, so the access is ordered),
// which turns idle-heavy stretches from one barrier per window into none.
//
// At each barrier the group gathers every shard's outbox, sorts each
// destination's inbound messages by (deliverAt, sentAt, srcActor, srcSeq),
// and queues them on the destination shard, one delivery event each. The
// sort key is built only from per-actor quantities — never from shard
// indices — so the merged order (and therefore every downstream event
// sequence) is identical at any shard count, including 1. Empty stretches
// are skipped by deriving the next window from the earliest pending event,
// so sparse periods cost one min-scan, not one barrier per L of virtual
// time.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"windserve/internal/sim"
)

// Stats counts window and barrier work performed by Run. Windows =
// Crossings + SoloWindows. The counts and wall times depend on the shard
// count and the host (that is their purpose) and must therefore never be
// folded into digested simulation output.
type Stats struct {
	Windows     int64 // windows executed in total
	Crossings   int64 // windows synchronized across all shards (full barrier)
	SoloWindows int64 // windows run on the coordinator: all events on one shard
	Delivered   int64 // cross-shard envelopes delivered at barriers
	// Busy[i] is the wall time shard i spent running its part of parallel
	// crossings. Wait[i] is the wall time the goroutine owning shard i
	// spent at the barrier: for shard 0, the coordinator waiting for the
	// workers to finish a crossing; for a worker, spinning or parked from
	// the end of one crossing to the start of the next, which spans the
	// coordinator's solo windows and deliveries. Both are zero in
	// sequential runs.
	Busy, Wait []time.Duration
}

// envelope is one cross-shard message in flight.
type envelope[M any] struct {
	at     sim.Time // delivery time (sentAt + delay)
	sentAt sim.Time
	actor  int    // sending actor id — stable across shard counts
	seq    uint64 // per-sending-actor sequence number
	dst    int    // destination shard
	m      M
}

// Handler consumes a delivered message on the destination shard, in the
// destination simulator's event context at the message's delivery time.
type Handler[M any] func(srcActor int, m M)

// Shard is one partition: a simulator plus mailboxes. All methods must be
// called from the shard's own goroutine (i.e. from within its events).
type Shard[M any] struct {
	g       *Group[M]
	idx     int
	sim     *sim.Simulator
	handler Handler[M]
	outbox  []envelope[M]
	inbox   []envelope[M] // barrier scratch, owned by the coordinator
	// pending holds delivered envelopes from index next on, in the order
	// their delivery events fire: by (clamped) delivery time, then by
	// scheduling order. Every delivery event runs the same pump (the
	// deliverNext method value, bound once), which hands the front
	// envelope to the handler, so a delivery costs no closure. This is
	// exact because the simulator fires events in (at, seq) order and seq
	// grows with scheduling order, the same order the queue keeps among
	// equal times.
	pending []envelope[M]
	next    int
	pump    func()
	// busy and wait feed Stats; see there.
	busy, wait time.Duration
}

// Sim returns the shard's simulator.
func (sh *Shard[M]) Sim() *sim.Simulator { return sh.sim }

// Index returns the shard's index within the group.
func (sh *Shard[M]) Index() int { return sh.idx }

// OnMessage installs the delivery handler. Must be set before Run.
func (sh *Shard[M]) OnMessage(h Handler[M]) { sh.handler = h }

// Send queues a message from actor (a caller-chosen id, unique across the
// whole group and stable across shard counts) for delivery on shard dst
// after delay. delay must be >= the group lookahead — that inequality is
// the entire correctness argument, so violating it panics. actor must be
// below the GrowActors bound; an id past it is a caller bug and panics.
func (sh *Shard[M]) Send(dst, actor int, delay sim.Duration, m M) {
	if sim.Time(delay) < sim.Time(sh.g.lookahead) {
		panic(fmt.Sprintf("shard: message delay %v below lookahead %v", delay, sh.g.lookahead))
	}
	if actor < 0 || actor >= len(sh.g.actorSeq) {
		panic(fmt.Sprintf("shard: actor %d outside the GrowActors bound %d", actor, len(sh.g.actorSeq)))
	}
	now := sh.sim.Now()
	sh.outbox = append(sh.outbox, envelope[M]{
		at:     now.Add(delay),
		sentAt: now,
		actor:  actor,
		seq:    sh.g.actorSeq[actor],
		dst:    dst,
		m:      m,
	})
	sh.g.actorSeq[actor]++
}

// enqueue inserts a delivered envelope behind every pending one with an
// equal or earlier delivery time. A constant-delay sender's batches arrive
// in order, so the common case is an append.
func (sh *Shard[M]) enqueue(env envelope[M]) {
	q := sh.pending
	if len(q) == cap(q) && sh.next > 0 && 2*sh.next >= len(q) {
		n := copy(q, q[sh.next:])
		clear(q[n:])
		q, sh.next = q[:n], 0
	}
	n := len(q)
	q = append(q, env)
	if n > sh.next && env.at < q[n-1].at {
		i, _ := slices.BinarySearchFunc(q[sh.next:n], env.at, func(e envelope[M], at sim.Time) int {
			if e.at <= at {
				return -1
			}
			return 1
		})
		i += sh.next
		copy(q[i+1:], q[i:n])
		q[i] = env
	}
	sh.pending = q
}

// deliverNext is the body of every delivery event: it hands the front
// pending envelope to the handler.
func (sh *Shard[M]) deliverNext() {
	env := sh.pending[sh.next]
	sh.pending[sh.next] = envelope[M]{}
	if sh.next++; sh.next == len(sh.pending) {
		sh.pending, sh.next = sh.pending[:0], 0
	}
	sh.handler(env.actor, env.m)
}

// Group coordinates N shards through lockstep windows.
type Group[M any] struct {
	lookahead sim.Duration
	shards    []*Shard[M]
	// actorSeq numbers each actor's sends. GrowActors must size it to
	// cover every actor id before Run: growing it from Send would race
	// across shards. An actor lives on exactly one shard, and barriers
	// order cross-goroutine access, so no locking is needed.
	actorSeq []uint64
	end      sim.Time
	endSet   bool
	stats    Stats
	// windowEnd, when set, replaces the adaptive window-end derivation.
	// Only tests set it, to run a reference grid through the same step.
	windowEnd func(tmin, L sim.Time) sim.Time

	// The barrier. Persistent window workers run shards 1..N-1 (shard 0
	// runs on the coordinating goroutine). The coordinator writes cmd,
	// arms running and bumps gen to publish the window; each worker waits
	// for gen to move, runs the window and decrements running, and the
	// coordinator waits for running to reach zero. Both sides wait the
	// same way (see waiter), and the atomics order every cross-goroutine
	// access to the shards. workers is nil outside Run.
	gen     atomic.Uint64
	cmd     windowCmd
	running atomic.Int32
	workers []*waiter
	coord   waiter
	spin    int // polls before parking, 0 when the shards outnumber the cores
	exited  sync.WaitGroup
}

type windowCmd struct {
	end       sim.Time
	inclusive bool // final partial window: fire events at <= end
	stop      bool // workers exit
}

// waiter lets one goroutine wait for an atomic condition that another
// makes true: spin, then park.
type waiter struct {
	state atomic.Int32 // spinning or parked
	// wake carries the one wake-up a parked waiter can be owed: it is
	// sent only after signal's parked->spinning CAS.
	wake chan struct{}
}

const (
	spinning int32 = iota
	parked
)

// A waiter polls spinLoads times, yielding every spinYield polls, before
// it parks: about 100 µs on a 2-vCPU host, longer than the widest
// windows a fleet crosses (~70 µs), so a busy run never pays a futex
// wake-up while an idle worker stops burning a core soon after the work
// moves elsewhere.
const (
	spinLoads = 1 << 15
	spinYield = 64
)

// wait returns once ready reports true, polling it up to spin times
// before parking. Parking stores parked before re-checking ready, and
// the goroutine that makes ready true calls signal afterwards, so (the
// atomics being sequentially consistent) either this goroutine sees
// ready or signal sees parked: no wake-up is lost. If both happen,
// whoever wins the parked->spinning CAS decides whether a token is in
// flight. A signal can also arrive late, from the round before, so a
// woken waiter checks ready again.
func (w *waiter) wait(ready func() bool, spin int) {
	for {
		for i := 1; i <= spin; i++ {
			if ready() {
				return
			}
			if i%spinYield == 0 {
				runtime.Gosched()
			}
		}
		w.state.Store(parked)
		if ready() && w.state.CompareAndSwap(parked, spinning) {
			return
		}
		<-w.wake
		if ready() {
			return
		}
	}
}

// signal wakes the waiter if it has parked. Call it after making the
// waiter's condition true.
func (w *waiter) signal() {
	if w.state.CompareAndSwap(parked, spinning) {
		w.wake <- struct{}{}
	}
}

// NewGroup builds a group of n shards (n >= 1) with the given lookahead
// (> 0): the minimum virtual latency of any cross-shard message.
func NewGroup[M any](n int, lookahead sim.Duration) *Group[M] {
	if n < 1 {
		panic("shard: need at least one shard")
	}
	if lookahead <= 0 {
		panic("shard: lookahead must be positive")
	}
	g := &Group[M]{lookahead: lookahead}
	g.coord.wake = make(chan struct{}, 1)
	for i := 0; i < n; i++ {
		sh := &Shard[M]{g: g, idx: i, sim: sim.New()}
		sh.pump = sh.deliverNext
		g.shards = append(g.shards, sh)
	}
	return g
}

// Shard returns shard i.
func (g *Group[M]) Shard(i int) *Shard[M] { return g.shards[i] }

// Stats returns window/barrier counters and wall times accumulated by Run.
// They describe wall-clock work only — virtual-time output is independent
// of them.
func (g *Group[M]) Stats() Stats {
	st := g.stats
	st.Busy = make([]time.Duration, len(g.shards))
	st.Wait = make([]time.Duration, len(g.shards))
	for i, sh := range g.shards {
		st.Busy[i], st.Wait[i] = sh.busy, sh.wait
	}
	return st
}

// GrowActors sizes the per-actor sequence table for actor ids < n. Every
// id passed to Send must be below the largest n given.
func (g *Group[M]) GrowActors(n int) {
	for len(g.actorSeq) < n {
		g.actorSeq = append(g.actorSeq, 0)
	}
}

// SetEnd caps the run at t (inclusive), mirroring a sequential
// Simulator.Run(t): events at <= t fire, later ones stay pending. Call it
// before Run or from within shard 0's events (shard 0 executes on the
// coordinating goroutine, so no synchronization is needed); the lowest
// value wins.
func (g *Group[M]) SetEnd(t sim.Time) {
	if g.endSet && g.end <= t {
		return
	}
	g.end, g.endSet = t, true
}

// AnyPending reports whether any shard still has undelivered events
// (meaningful after Run returns with an end cap).
func (g *Group[M]) AnyPending() bool {
	for _, sh := range g.shards {
		if sh.sim.Pending() > 0 {
			return true
		}
	}
	return false
}

// LastFired returns the latest event time fired on any shard.
func (g *Group[M]) LastFired() sim.Time {
	var t sim.Time
	for _, sh := range g.shards {
		if lf := sh.sim.LastFired(); lf > t {
			t = lf
		}
	}
	return t
}

// Run executes windows until every shard drains or the end cap is
// reached. With parallel true, shards 1..N-1 run on persistent worker
// goroutines and the calling goroutine runs shard 0; barriers are
// synchronized through atomics, so all cross-shard memory access is
// ordered. With parallel false (or one shard), everything runs on the
// caller.
func (g *Group[M]) Run(parallel bool) {
	parallel = parallel && len(g.shards) > 1
	if parallel {
		g.startWorkers()
		defer g.stopWorkers()
	}
	for g.step(parallel) {
	}
}

// step derives and executes the next window; it reports false when every
// shard has drained or the end cap is reached. The window end is a
// function of (tmin, L, end) only — all global, shard-count-invariant
// quantities — which is the whole invariance argument: the window
// sequence, and hence every simulator's event sequence, is identical at
// any shard count and in any execution mode.
func (g *Group[M]) step(parallel bool) bool {
	tmin, any := sim.Time(0), false
	for _, sh := range g.shards {
		if t, ok := sh.sim.NextAt(); ok && (!any || t < tmin) {
			tmin, any = t, true
		}
	}
	if !any || (g.endSet && tmin > g.end) {
		return false
	}
	L := sim.Time(g.lookahead)
	var wend sim.Time
	if g.windowEnd != nil {
		wend = g.windowEnd(tmin, L)
	} else {
		// The earliest-output-time bound. No shard can emit a cross-shard
		// effect before tmin + L (outboxes are empty here, and any
		// in-window send has sentAt >= tmin, delay >= L), so the window
		// safely runs all the way to wend = tmin + L — one window per
		// event cluster. When L underflows an ulp of tmin, widen to the
		// next representable time so the window still contains tmin.
		wend = tmin + L
		if wend <= tmin {
			wend = sim.Time(math.Nextafter(float64(tmin), math.Inf(1)))
		}
	}
	cmd := windowCmd{end: wend}
	last := false
	if g.endSet && wend > g.end {
		// Final partial window [tmin, end]. Any message sent here has
		// sentAt >= tmin, so it delivers at >= tmin + L = wend > end:
		// the cap drops it, exactly as a sequential run would leave its
		// delivery pending past the horizon.
		cmd = windowCmd{end: g.end, inclusive: true}
		last = true
	}
	g.stats.Windows++
	if g.activeShards(cmd) <= 1 {
		// Every in-window event lives on one shard: execute the window
		// on the coordinating goroutine without waking the workers.
		// Idle shards still get their clocks parked at the window end
		// (a peek plus an assignment each), so per-shard state after a
		// solo window is indistinguishable from a full barrier — only
		// the synchronization is skipped. Workers only watch gen between
		// handshakes, so the coordinator's access is ordered.
		g.stats.SoloWindows++
		g.runAll(false, cmd)
	} else {
		g.stats.Crossings++
		g.runAll(parallel, cmd)
	}
	if last {
		return false
	}
	g.deliver()
	return true
}

// activeShards counts shards holding at least one event inside the window.
func (g *Group[M]) activeShards(cmd windowCmd) int {
	n := 0
	for _, sh := range g.shards {
		if t, ok := sh.sim.NextAt(); ok && (t < cmd.end || (cmd.inclusive && t <= cmd.end)) {
			n++
		}
	}
	return n
}

// runAll executes one window on every shard. Only parallel crossings are
// timed: a clock read costs about as much as a solo window's idle shard.
func (g *Group[M]) runAll(parallel bool, cmd windowCmd) {
	if !parallel {
		for _, sh := range g.shards {
			sh.runWindow(cmd)
		}
		return
	}
	g.publish(cmd)
	sh := g.shards[0]
	t0 := time.Now()
	sh.runWindow(cmd)
	t1 := time.Now()
	g.coord.wait(g.workersDone, g.spin)
	sh.busy += t1.Sub(t0)
	sh.wait += time.Since(t1)
}

func (g *Group[M]) workersDone() bool { return g.running.Load() == 0 }

func (sh *Shard[M]) runWindow(cmd windowCmd) {
	if cmd.inclusive {
		sh.sim.Run(cmd.end)
	} else {
		sh.sim.RunWindow(cmd.end)
	}
}

// deliver is the barrier: move every outbox message to its destination,
// order each destination's batch canonically, and schedule deliveries.
// Runs on the coordinating goroutine between windows; steady-state
// crossings do not allocate.
func (g *Group[M]) deliver() {
	for _, src := range g.shards {
		for _, env := range src.outbox {
			dst := g.shards[env.dst]
			dst.inbox = append(dst.inbox, env)
		}
		src.outbox = src.outbox[:0]
	}
	for _, dst := range g.shards {
		if len(dst.inbox) == 0 {
			continue
		}
		g.stats.Delivered += int64(len(dst.inbox))
		// (deliverAt, sentAt, actor, seq): built from per-actor
		// quantities only, so the order is shard-count-invariant.
		slices.SortFunc(dst.inbox, func(a, b envelope[M]) int {
			switch {
			case a.at != b.at:
				if a.at < b.at {
					return -1
				}
				return 1
			case a.sentAt != b.sentAt:
				if a.sentAt < b.sentAt {
					return -1
				}
				return 1
			case a.actor != b.actor:
				return a.actor - b.actor
			case a.seq < b.seq:
				return -1
			case a.seq > b.seq:
				return 1
			}
			return 0
		})
		s := dst.sim
		for _, env := range dst.inbox {
			// Guard against float rounding landing a delivery a
			// half-ulp inside the already-executed window. The clamp
			// is applied identically at every shard count, so it
			// cannot perturb cross-config determinism.
			if now := s.Now(); env.at < now {
				env.at = now
			}
			dst.enqueue(env)
			s.At(env.at, dst.pump)
		}
		dst.inbox = dst.inbox[:0]
	}
}

// publish hands cmd to every worker: write it, arm the running count,
// bump gen, and wake whichever workers have parked.
func (g *Group[M]) publish(cmd windowCmd) {
	g.cmd = cmd
	g.running.Store(int32(len(g.workers)))
	g.gen.Add(1)
	for _, w := range g.workers {
		w.signal()
	}
}

// work is a worker goroutine's loop: wait for a window, run it, report.
// seen is the generation current when the worker started.
func (g *Group[M]) work(sh *Shard[M], w *waiter, seen uint64) {
	defer g.exited.Done()
	t0 := time.Now()
	for {
		w.wait(func() bool { return g.gen.Load() != seen }, g.spin)
		seen = g.gen.Load()
		cmd := g.cmd
		if cmd.stop {
			return
		}
		t1 := time.Now()
		sh.runWindow(cmd)
		t2 := time.Now()
		sh.wait += t1.Sub(t0)
		sh.busy += t2.Sub(t1)
		t0 = t2
		if g.running.Add(-1) == 0 {
			g.coord.signal()
		}
	}
}

// startWorkers starts one worker per shard past the first. Spinning pays
// only while every shard's goroutine can hold a core: with more shards
// than min(GOMAXPROCS, CPUs), a spinning goroutine takes the core a
// window is waiting for, so every wait parks at once.
func (g *Group[M]) startWorkers() {
	g.spin = spinLoads
	if len(g.shards) > min(runtime.GOMAXPROCS(0), runtime.NumCPU()) {
		g.spin = 0
	}
	g.workers = make([]*waiter, len(g.shards)-1)
	g.exited.Add(len(g.workers))
	for i := range g.workers {
		w := &waiter{wake: make(chan struct{}, 1)}
		g.workers[i] = w
		go g.work(g.shards[i+1], w, g.gen.Load())
	}
}

// stopWorkers lets any window still running finish, tells the workers to
// exit and returns once they have.
func (g *Group[M]) stopWorkers() {
	g.coord.wait(g.workersDone, g.spin)
	g.publish(windowCmd{stop: true})
	g.exited.Wait()
	g.workers = nil
	g.running.Store(0) // the stop command is never acknowledged
}
