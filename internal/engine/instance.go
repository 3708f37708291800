// Package engine implements the per-instance inference engine all three
// simulated systems (vLLM, DistServe, WindServe) are built from: an
// event-driven iteration loop with continuous batching, FCFS local
// scheduling, whole-prompt and chunked prefill, hybrid batches,
// swap-based preemption, and — for WindServe's decode instances —
// stream-based disaggregation, where dispatched prefills run concurrently
// with decode iterations in a second stream.
//
// The engine provides mechanism only. Policy (where a request prefills,
// when KV moves, when to migrate) lives in internal/sched and the system
// wiring in internal/serve, attached through Hooks.
package engine

import (
	"cmp"
	"fmt"
	"slices"

	"windserve/internal/kvcache"
	"windserve/internal/metrics"
	"windserve/internal/perf"
	"windserve/internal/sim"
	"windserve/internal/trace"
	"windserve/internal/xfer"
)

// Hooks are the policy callbacks a system attaches to an instance.
// Any hook may be nil.
type Hooks struct {
	// OnPrefillStart fires when a request's first prefill pass begins.
	OnPrefillStart func(r *Req)
	// OnFirstToken fires the moment prefill completes and the first output
	// token exists — including for requests whose output is a single token
	// (which never reach OnPrefillDone because they are already finished).
	OnFirstToken func(r *Req)
	// OnPrefillDone fires when the full prompt is prefilled and the
	// request still has tokens to decode. The request has been removed
	// from the prefill queue; the system decides what happens next (admit
	// locally, transfer, ...). The request's KV is still allocated on
	// this instance.
	OnPrefillDone func(r *Req)
	// OnDecodeStart fires when a request's first decode iteration begins.
	OnDecodeStart func(r *Req)
	// OnComplete fires at EOS. The engine has already released the
	// request's KV on this instance.
	OnComplete func(r *Req)
	// OnIterationEnd fires after each completed pass, after effects are
	// applied — the place for watermark checks (Dynamic Rescheduling).
	OnIterationEnd func()
	// OnEvicted fires when a request must restart from scratch because
	// even swap space ran out (KV already released). If nil the request
	// re-enters this instance's prefill queue.
	OnEvicted func(r *Req)
}

// Config fixes an instance's role and mechanisms.
type Config struct {
	Name string
	CM   *perf.CostModel
	KV   *kvcache.Manager
	// HostLink carries swap traffic. Swaps stall the engine (as in vLLM).
	HostLink *xfer.Link
	Tracer   *trace.Tracer

	// AllowPrefill permits prefill work in the main stream (true for
	// prefill instances and co-located engines; false for pure decode
	// instances, whose only prefill path is SBD assists).
	AllowPrefill bool
	// ChunkSize is the per-iteration new-token budget once decode jobs
	// share the main stream (chunked prefill). 0 disables chunking.
	ChunkSize int
	// AlwaysChunk forms every hybrid batch with the chunk budget even
	// when no decodes are running (vLLM's chunked-prefill mode).
	AlwaysChunk bool
	// MaxPrefillTokens bounds the total prompt tokens batched into one
	// whole-prompt prefill pass, and into one SBD assist pass (Algorithm 1
	// adds the whole assistRequests set to the decode pipeline at once).
	MaxPrefillTokens int
	// MaxDecodeBatch bounds the running decode batch size.
	MaxDecodeBatch int
	// SBD runs assist prefills in a separate stream concurrently with
	// decode iterations (WindServe's Stream-based Disaggregation). When
	// false, assists join the prefill queue instead (the paper's
	// WindServe-no-split ablation).
	SBD bool
}

// Instance is one serving instance (a prefill, decode, or co-located
// engine) advancing on the shared simulator.
type Instance struct {
	cfg   Config
	sim   *sim.Simulator
	hooks Hooks

	prefillQ []*Req // FCFS prefill waiting queue
	assistQ  []*Req // dispatched prefills awaiting the SBD stream
	admitQ   []*Req // prefilled, KV resident, waiting to join running
	running  []*Req // decode batch
	swapped  []*Req // preempted to host memory

	busy        bool
	busyUntil   sim.Time
	stallUntil  sim.Time // swap transfers stall the next iteration
	kickPending bool
	// down marks a crashed instance: the iteration loop refuses to run
	// and epoch invalidates completions of passes that were in flight at
	// crash time (their closures compare epochs and bail).
	down  bool
	epoch uint64
	// slow multiplies pass durations (transient GPU slowdown fault);
	// 0 and 1 both mean nominal speed.
	slow float64
	// inFlight counts passes past their initiation interval but not yet
	// applied. Pipeline parallelism lets pure-prefill passes overlap: a
	// new prefill batch may enter stage 0 once the previous pass clears
	// it (one initiation interval = latency / PP), so a PP-p prefill
	// instance sustains ~p× the throughput of its per-pass latency.
	// Decode and hybrid passes never overlap (consecutive decode steps
	// are data-dependent).
	inFlight int

	// assist is the SBD pass in flight in the second stream, nil when
	// stream 2 is idle.
	assist *passPlan

	// Lazy decode tokens. A decode pass gives every request in the batch
	// when it formed, and still in it when it applies, one token; rather
	// than visit them all, the pass bumps passes and Req.Generated adds
	// the passes applied since the request's mark. apply visits only the
	// requests due that pass (see Req.due), in batch order.
	//
	// passes counts applied decode passes; the one in flight (pending) is
	// passes+1. applying is set while apply visits, cursor is the key it
	// has reached, and visiting the request it is at.
	passes   int
	pending  bool
	applying bool
	cursor   int
	visiting *Req
	// nextSeq numbers pushes onto the running batch (Req.seq).
	nextSeq int
	// sumCtx is the summed context of the running batch; ahead counts the
	// running requests marked past passes (joined or visited during the
	// pass in flight), which its apply must not count again.
	sumCtx, ahead int
	// due is a ring of due lists indexed by pass number; no request is due
	// more than one KV block of passes ahead, so it never wraps onto a
	// live list.
	due [][]batchRef
	// joined lists the requests pushed since the last pass formed, the
	// only ones whose first decode step can start (OnDecodeStart).
	joined []batchRef
	// departed lists the requests removed from the pass in flight before
	// it applied, with their keys: re-inserted before it applies, one
	// keeps the pass's token at its old position.
	departed []batchRef

	// kickFn is Kick's event body, built once so a kick allocates nothing.
	kickFn func()
	// freePlans recycles pass plans, with their slices and closures, once
	// a pass has applied or a crash has abandoned it.
	freePlans []*passPlan

	// Telemetry.
	ComputeGauge metrics.Gauge // tensor-core utilization (Fig. 2)
	BWGauge      metrics.Gauge // HBM bandwidth utilization (Fig. 2)
	Iterations   uint64
	SwapStall    sim.Duration
	Recomputes   uint64
}

// NewInstance validates config and returns an idle instance.
func NewInstance(s *sim.Simulator, cfg Config, hooks Hooks) (*Instance, error) {
	if cfg.CM == nil || cfg.KV == nil {
		return nil, fmt.Errorf("engine: %s needs a cost model and KV manager", cfg.Name)
	}
	if cfg.MaxDecodeBatch <= 0 {
		cfg.MaxDecodeBatch = 256
	}
	if cfg.MaxPrefillTokens <= 0 {
		cfg.MaxPrefillTokens = 8192
	}
	ins := &Instance{cfg: cfg, sim: s, hooks: hooks}
	ring := 1
	for ring <= cfg.KV.BlockSize() {
		ring <<= 1
	}
	ins.due = make([][]batchRef, ring)
	ins.kickFn = func() {
		ins.kickPending = false
		ins.step()
	}
	return ins, nil
}

// Name returns the instance name.
func (ins *Instance) Name() string { return ins.cfg.Name }

// KV exposes the instance's block manager (systems allocate transfer
// targets and backups through it).
func (ins *Instance) KV() *kvcache.Manager { return ins.cfg.KV }

// CM exposes the cost model (the Profiler profiles against it).
func (ins *Instance) CM() *perf.CostModel { return ins.cfg.CM }

// --- Work submission -------------------------------------------------

// EnqueuePrefill adds a request to the FCFS prefill queue.
func (ins *Instance) EnqueuePrefill(r *Req) {
	r.Phase = PhaseWaiting
	ins.prefillQ = append(ins.prefillQ, r)
	ins.Kick()
}

// EnqueueAssist adds a dispatched prefill. With SBD it runs in the second
// stream; otherwise it degrades to a normal prefill enqueue. The caller
// must have allocated KV for prompt+1 tokens on this instance already.
func (ins *Instance) EnqueueAssist(r *Req) {
	r.Assist = true
	if !ins.cfg.SBD {
		ins.EnqueuePrefill(r)
		return
	}
	r.Phase = PhaseWaiting
	ins.assistQ = append(ins.assistQ, r)
	ins.Kick()
}

// AdmitDecode queues a prefilled request (KV resident here) for the
// running batch.
func (ins *Instance) AdmitDecode(r *Req) {
	r.Phase = PhasePendingDecode
	ins.admitQ = append(ins.admitQ, r)
	ins.Kick()
}

// InsertRunning adds a request directly to the running batch (migration
// resume). KV must already be resident.
func (ins *Instance) InsertRunning(r *Req) {
	ins.pushRunning(r)
	ins.Kick()
}

// batchRef names a request in a per-instance list with the seq (or key)
// it had when listed; an entry whose request has moved on is stale.
type batchRef struct {
	r *Req
	n int
}

// pushRunning appends r to the running batch. A request is in at most
// one running batch at a time: callers remove it from the old one first,
// and r has its first token already. Its first pass is always due, so the
// visit syncs its KV to its count.
func (ins *Instance) pushRunning(r *Req) {
	if r.runningOn != nil {
		panic(fmt.Sprintf("engine: %v joins %s while running on %s", r, ins.cfg.Name, r.runningOn.cfg.Name))
	}
	r.Phase = PhaseDecoding
	r.runningOn = ins
	ins.running = append(ins.running, r)
	ins.nextSeq++
	r.seq, r.key, r.mark, r.fresh = ins.nextSeq, ins.nextSeq, ins.passes, true
	first := ins.passes + 1
	if ins.pending {
		if key, ok := ins.owed(r); ok {
			r.key = key
		} else {
			// Not in the pass in flight: count from the one after it.
			r.mark++
			ins.ahead++
			first++
		}
	}
	ins.sumCtx += r.Ctx()
	ins.schedule(r, first)
	ins.joined = append(ins.joined, batchRef{r, r.seq})
}

// owed reports whether r left the pass in flight before it applied, and
// at which key.
func (ins *Instance) owed(r *Req) (int, bool) {
	for i := len(ins.departed) - 1; i >= 0; i-- {
		if ins.departed[i].r == r {
			return ins.departed[i].n, true
		}
	}
	return 0, false
}

// RemoveRunning takes a request out of the running batch (migration
// drain). Reports whether it was present. Order is kept: eviction picks
// the latest admitted, and hooks fire in batch order.
func (ins *Instance) RemoveRunning(r *Req) bool {
	if r.runningOn != ins {
		return false
	}
	ins.leave(r)
	ins.running = removeReq(ins.running, r)
	return true
}

// leave stores r's token count as it leaves the running batch and syncs
// its KV token count to the last size the per-token rule grew it to. A
// fresh request was never grown here.
func (ins *Instance) leave(r *Req) {
	n := ins.gained(r)
	switch {
	case r.mark > ins.passes:
		ins.ahead--
	case ins.applying && r.key < ins.cursor:
		// gained counts the applying pass's token, which sumCtx gets only
		// when the pass ends.
		ins.sumCtx++
	case ins.pending && !ins.applying:
		ins.departed = append(ins.departed, batchRef{r, r.key})
	}
	r.gen += n
	r.runningOn = nil
	ins.sumCtx -= r.Ctx()
	if !r.fresh {
		ctx := r.Ctx()
		if r == ins.visiting {
			ctx-- // its grow to the pass's token has not succeeded
		}
		ins.syncKV(r, ctx)
	}
}

// gained is how many tokens r has gained here since its mark: one per
// decode pass applied since, plus the pass applying once the visit
// cursor has passed r's position in it.
func (ins *Instance) gained(r *Req) int {
	n := ins.passes - r.mark
	if n < 0 {
		return 0 // joined, or was visited, during the pass in flight
	}
	if ins.applying && r.key < ins.cursor {
		n++
	}
	return n
}

// syncKV grows r's allocation to ctx tokens, inside the blocks it holds.
func (ins *Instance) syncKV(r *Req, ctx int) {
	if err := r.kv.Grow(ctx); err != nil {
		panic(fmt.Sprintf("engine: %s sync KV of %v to %d tokens: %v", ins.cfg.Name, r, ctx, err))
	}
}

// schedule puts r on the due list of the given pass.
func (ins *Instance) schedule(r *Req, pass int) {
	r.due = pass
	l := &ins.due[pass&(len(ins.due)-1)]
	*l = append(*l, batchRef{r, r.seq})
}

// ReleaseKV frees a request's blocks here and re-kicks the engine (freed
// space may unblock queued work).
func (ins *Instance) ReleaseKV(r *Req) {
	if ins.cfg.KV.Has(r.KVID()) {
		if err := ins.cfg.KV.Release(r.KVID()); err != nil {
			panic(fmt.Sprintf("engine: %s release %v: %v", ins.cfg.Name, r, err))
		}
	}
	ins.Kick()
}

// --- Fault injection ---------------------------------------------------

// Crash takes the instance down, losing its KV cache and all in-flight
// work: passes in either stream are invalidated (their completion events
// compare epochs and bail), queues are emptied, and every resident
// request is returned for the system layer to recover elsewhere. The
// returned orphans preserve queue order (prefill queue, assist queue,
// active assists, admit queue, running batch, swapped) so recovery is
// deterministic.
func (ins *Instance) Crash() []*Req {
	ins.down = true
	ins.epoch++
	ins.busy = false
	ins.inFlight = 0
	ins.stallUntil = 0
	for _, r := range ins.running {
		r.gen += ins.gained(r)
		r.runningOn = nil
	}
	ins.pending, ins.sumCtx, ins.ahead = false, 0, 0
	for i := range ins.due {
		clear(ins.due[i])
		ins.due[i] = ins.due[i][:0]
	}
	clear(ins.joined)
	clear(ins.departed)
	ins.joined, ins.departed = ins.joined[:0], ins.departed[:0]
	var orphans []*Req
	collect := func(rs []*Req) {
		for _, r := range rs {
			r.inPass = false
			orphans = append(orphans, r)
		}
	}
	collect(ins.prefillQ)
	collect(ins.assistQ)
	if ins.assist != nil {
		for _, seg := range ins.assist.prefillSegs {
			seg.r.inPass = false
			orphans = append(orphans, seg.r)
		}
	}
	collect(ins.admitQ)
	collect(ins.running)
	collect(ins.swapped)
	ins.prefillQ, ins.assistQ, ins.assist = nil, nil, nil
	ins.admitQ, ins.running, ins.swapped = nil, nil, nil
	ins.cfg.KV.Reset()
	return orphans
}

// Restore brings a crashed instance back, empty, and restarts its loop.
func (ins *Instance) Restore() {
	if !ins.down {
		return
	}
	ins.down = false
	ins.Kick()
}

// Down reports whether the instance is crashed.
func (ins *Instance) Down() bool { return ins.down }

// SetSlowdown multiplies future pass durations by factor (>= 1; smaller
// values restore nominal speed). Passes already in flight keep their
// original durations.
func (ins *Instance) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	ins.slow = factor
}

// Slowdown returns the current pass-duration multiplier (1 when nominal).
func (ins *Instance) Slowdown() float64 {
	if ins.slow > 1 {
		return ins.slow
	}
	return 1
}

// SetAllowPrefill changes whether the main stream accepts prefill work —
// the elastic role-flip switch. Enabling kicks the engine (queued
// prompts may now form a pass); disabling never interrupts a pass in
// flight, and requests already queued or mid-chunk keep draining (the
// batch former reads the flag per pass, so only future passes change).
func (ins *Instance) SetAllowPrefill(v bool) {
	if ins.cfg.AllowPrefill == v {
		return
	}
	ins.cfg.AllowPrefill = v
	if v {
		ins.Kick()
	}
}

// DrainPrefillQueue removes and returns the untouched portion of the
// main-stream prefill queue — requests no pass has started and no KV
// allocation binds here — preserving FCFS order. Requests mid-pass or
// with resident KV (a chunked prefill between passes, a prefix-cache
// hold) stay and finish locally; the caller re-routes the drained rest.
func (ins *Instance) DrainPrefillQueue() []*Req {
	var drained []*Req
	keep := ins.prefillQ[:0]
	for _, r := range ins.prefillQ {
		if r.inPass || ins.cfg.KV.Has(r.KVID()) {
			keep = append(keep, r)
		} else {
			drained = append(drained, r)
		}
	}
	ins.prefillQ = keep
	return drained
}

// Abort removes a cancelled request from every queue and releases its KV
// here. The caller must have set PhaseAborted first so in-flight pass
// effects (which cannot be recalled) skip the request when they apply.
// Requests unknown to this instance are a safe no-op.
func (ins *Instance) Abort(r *Req) {
	ins.prefillQ = removeReq(ins.prefillQ, r)
	ins.assistQ = removeReq(ins.assistQ, r)
	ins.admitQ = removeReq(ins.admitQ, r)
	ins.swapped = removeReq(ins.swapped, r)
	ins.RemoveRunning(r)
	// Requests in the assist pass stay in it (the pass is running); the
	// completion loop skips aborted entries.
	ins.ReleaseKV(r)
}

// popFront drops the first n requests of q in place. Keeping the backing
// array, rather than reslicing past the head, lets a steady enqueue and
// dequeue stream reuse it instead of reallocating.
func popFront(q []*Req, n int) []*Req {
	m := copy(q, q[n:])
	clear(q[m:])
	return q[:m]
}

func removeReq(rs []*Req, r *Req) []*Req {
	for i, x := range rs {
		if x == r {
			return append(rs[:i], rs[i+1:]...)
		}
	}
	return rs
}

// --- Observability (the Global Scheduler's view) ----------------------

// QueuedPrefillTokens sums the unprefilled prompt tokens waiting in the
// main-stream queue — Algorithm 1's load signal.
func (ins *Instance) QueuedPrefillTokens() int {
	n := 0
	for _, r := range ins.prefillQ {
		n += r.PrefillRemaining()
	}
	return n
}

// BusyRemaining is the time until the current pass completes (0 if idle).
func (ins *Instance) BusyRemaining() sim.Duration {
	if !ins.busy {
		return 0
	}
	return ins.busyUntil.Sub(ins.sim.Now())
}

// RunningShape describes the current decode batch.
func (ins *Instance) RunningShape() perf.Batch {
	b := perf.Batch{DecodeReqs: len(ins.running), DecodeSumCtx: ins.sumCtx}
	if ins.applying {
		// A hook inside apply: the requests the cursor has passed without
		// a visit hold their token but sumCtx has not counted it yet.
		b.DecodeSumCtx = 0
		for _, r := range ins.running {
			b.DecodeSumCtx += r.Ctx()
		}
	}
	return b
}

// Running returns the live decode batch (callers must not mutate).
func (ins *Instance) Running() []*Req { return ins.running }

// NumRunning returns the decode batch size.
func (ins *Instance) NumRunning() int { return len(ins.running) }

// NumSwapped returns how many requests are preempted to host memory.
func (ins *Instance) NumSwapped() int { return len(ins.swapped) }

// NumQueued returns prefill queue length.
func (ins *Instance) NumQueued() int { return len(ins.prefillQ) }

// PendingAdmits returns how many prefilled requests await decode admission.
func (ins *Instance) PendingAdmits() int { return len(ins.admitQ) }

// AssistPendingTokens sums prompt tokens of queued + active assists.
func (ins *Instance) AssistPendingTokens() int {
	n := 0
	for _, r := range ins.assistQ {
		n += r.PrefillRemaining()
	}
	if ins.assist != nil {
		for _, seg := range ins.assist.prefillSegs {
			n += seg.r.W.PromptTokens
		}
	}
	return n
}

// AssistActive reports whether an SBD prefill pass is in flight.
func (ins *Instance) AssistActive() bool { return ins.assist != nil }

// FreeKVTokens returns the token capacity of free blocks.
func (ins *Instance) FreeKVTokens() int { return ins.cfg.KV.FreeTokens() }

// Idle reports whether the main stream has nothing running or runnable.
func (ins *Instance) Idle() bool {
	return !ins.busy && len(ins.running) == 0 && len(ins.prefillQ) == 0 &&
		len(ins.admitQ) == 0 && ins.assist == nil && len(ins.assistQ) == 0
}

// --- The iteration loop ------------------------------------------------

// Kick schedules a scheduling pass if none is pending. Idempotent; safe to
// call from hooks and completions.
func (ins *Instance) Kick() {
	if ins.kickPending {
		return
	}
	ins.kickPending = true
	delay := sim.Duration(0)
	if now := ins.sim.Now(); ins.stallUntil > now && !ins.busy {
		delay = ins.stallUntil.Sub(now)
	}
	ins.sim.Schedule(delay, ins.kickFn)
}

func (ins *Instance) step() {
	if ins.down || ins.busy {
		return
	}
	if now := ins.sim.Now(); ins.stallUntil > now {
		ins.Kick()
		return
	}
	if ins.inFlight > 0 && (len(ins.running) > 0 || len(ins.admitQ) > 0 || len(ins.swapped) > 0) {
		// Decode work is runnable but prefill passes are still in the
		// pipeline; wait for them to drain (their completions re-kick).
		return
	}
	ins.trySwapIn()
	ins.admit()
	ins.maybeStartAssist()
	plan := ins.formBatch()
	batch := plan.batch
	if batch.Empty() {
		ins.freePlans = append(ins.freePlans, plan)
		return
	}
	start := ins.sim.Now()
	dur := ins.passDuration(batch)
	// Pure-prefill passes on a PP>1 placement pipeline: the engine frees
	// for the next batch after one initiation interval, while the pass's
	// effects land at its full latency.
	initiation := dur
	if batch.DecodeReqs == 0 && ins.cfg.CM.Place.PP > 1 {
		initiation = dur / sim.Duration(ins.cfg.CM.Place.PP)
	}
	ins.pending = batch.DecodeReqs > 0
	ins.busy = true
	ins.busyUntil = start.Add(dur)
	ins.inFlight++
	ins.Iterations++
	ins.recordUtilization(batch, start, dur)
	ins.tracePass(plan, start, dur)
	for _, r := range plan.newDecodes {
		if ins.hooks.OnDecodeStart != nil {
			ins.hooks.OnDecodeStart(r)
		}
	}
	plan.epoch = ins.epoch
	ins.sim.Schedule(initiation, plan.initiated)
	ins.sim.Schedule(dur, plan.completed)
}

// passPlan remembers what a pass will do so apply() can commit it: a
// main-stream pass, or with assist set an SBD prefill pass in the second
// stream. Plans are recycled through Instance.freePlans: the slices keep
// their backing arrays, and the event bodies are built once per plan
// object.
type passPlan struct {
	prefillSegs []prefillSeg
	newDecodes  []*Req // first decode step this pass
	batch       perf.Batch
	assist      bool

	// epoch is the instance epoch the pass started in; a crash bumps the
	// instance's, so the events of a pass in flight see the mismatch.
	epoch uint64
	// initiated frees the engine for the next pass; completed applies the
	// pass and returns the plan to the free list.
	initiated, completed func()
}

// newPlan takes a plan off the free list, or builds one with its events.
func (ins *Instance) newPlan() *passPlan {
	if n := len(ins.freePlans); n > 0 {
		p := ins.freePlans[n-1]
		ins.freePlans = ins.freePlans[:n-1]
		p.prefillSegs = p.prefillSegs[:0]
		p.newDecodes = p.newDecodes[:0]
		p.batch = perf.Batch{Prefill: p.batch.Prefill[:0]}
		p.assist = false
		return p
	}
	p := &passPlan{}
	p.initiated = func() {
		if ins.epoch != p.epoch {
			return // crashed mid-pass; Crash already reset busy
		}
		ins.busy = false
		ins.Kick()
	}
	p.completed = func() {
		if ins.epoch == p.epoch { // else crashed mid-pass; its effects are lost
			ins.complete(p)
		}
		ins.freePlans = append(ins.freePlans, p)
	}
	return p
}

// complete commits a finished pass in either stream.
func (ins *Instance) complete(p *passPlan) {
	if p.assist {
		ins.finishAssist(p)
	} else {
		ins.inFlight--
		ins.apply(p)
		if ins.hooks.OnIterationEnd != nil {
			ins.hooks.OnIterationEnd()
		}
	}
	ins.Kick()
}

type prefillSeg struct {
	r      *Req
	tokens int
}

// passDuration selects the timing model: SBD contention applies to decode
// passes while an assist prefill stream is active.
func (ins *Instance) passDuration(b perf.Batch) sim.Duration {
	if ins.assist != nil {
		return ins.slowed(ins.cfg.CM.SBDDecodeTime(b, ins.assist.batch))
	}
	return ins.slowed(ins.cfg.CM.IterTime(b))
}

// slowed applies the transient-slowdown fault multiplier to a pass time.
func (ins *Instance) slowed(d sim.Duration) sim.Duration {
	if ins.slow > 1 {
		return sim.Duration(float64(d) * ins.slow)
	}
	return d
}

// admit moves pending requests into the running batch.
func (ins *Instance) admit() {
	n := 0
	for n < len(ins.admitQ) && len(ins.running) < ins.cfg.MaxDecodeBatch {
		ins.pushRunning(ins.admitQ[n])
		n++
	}
	ins.admitQ = popFront(ins.admitQ, n)
}

// trySwapIn restores the oldest preempted request if blocks allow.
// Swapped requests take priority over new admissions (vLLM policy).
func (ins *Instance) trySwapIn() {
	for len(ins.swapped) > 0 && len(ins.running) < ins.cfg.MaxDecodeBatch {
		r := ins.swapped[0]
		tokens, err := ins.cfg.KV.SwapIn(r.KVID())
		if err != nil {
			return // no space yet; retry on a later kick
		}
		ins.swapped = ins.swapped[1:]
		ins.stall(ins.swapTime(tokens), trace.KindSwapIn, r)
		ins.pushRunning(r)
	}
}

// maybeStartAssist launches the next SBD prefill pass in the second
// stream, batching queued assists up to MaxPrefillTokens (Algorithm 1
// adds the accumulated assistRequests to the decode pipeline together).
func (ins *Instance) maybeStartAssist() {
	if !ins.cfg.SBD || ins.assist != nil || len(ins.assistQ) == 0 {
		return
	}
	p := ins.newPlan()
	p.assist = true
	ins.assist = p
	budget := ins.cfg.MaxPrefillTokens
	for len(ins.assistQ) > 0 {
		r := ins.assistQ[0]
		n := r.PrefillRemaining()
		if n > budget && len(p.prefillSegs) > 0 {
			break
		}
		ins.assistQ = popFront(ins.assistQ, 1)
		r.Phase = PhasePrefilling
		p.prefillSegs = append(p.prefillSegs, prefillSeg{r: r, tokens: n})
		p.batch.Prefill = append(p.batch.Prefill, perf.PrefillSeg{NewTokens: n})
		if ins.hooks.OnPrefillStart != nil {
			ins.hooks.OnPrefillStart(r)
		}
		budget -= n
		if budget <= 0 {
			break
		}
	}
	start := ins.sim.Now()
	dur := ins.slowed(ins.cfg.CM.SBDPrefillTime(p.batch, ins.RunningShape()))
	cost := ins.cfg.CM.BatchCost(p.batch)
	ins.ComputeGauge.AddInterval(start, start.Add(dur),
		cost.FLOPs()/(dur.Seconds()*ins.cfg.CM.GPU.FLOPS()*float64(ins.cfg.CM.Place.GPUs())))
	if ins.cfg.Tracer != nil {
		ins.cfg.Tracer.Add(ins.cfg.Name+"/stream2", trace.KindSBDPrefill, start, start.Add(dur),
			fmt.Sprintf("%d reqs n=%d", len(p.prefillSegs), p.batch.PrefillTokens()))
	}
	p.epoch = ins.epoch
	ins.sim.Schedule(dur, p.completed)
}

// finishAssist commits a completed SBD prefill pass.
func (ins *Instance) finishAssist(p *passPlan) {
	ins.assist = nil
	for _, seg := range p.prefillSegs {
		if seg.r.Phase == PhaseAborted {
			continue // cancelled mid-pass; KV already released
		}
		seg.r.PrefillDone = seg.r.W.PromptTokens
		ins.finishPrefill(seg.r)
	}
}

// formBatch builds the next main-stream pass under FCFS with continuous
// batching. The plan comes off the free list; the caller returns it.
func (ins *Instance) formBatch() *passPlan {
	plan := ins.newPlan()
	b := &plan.batch
	b.DecodeReqs, b.DecodeSumCtx = len(ins.running), ins.sumCtx
	for _, j := range ins.joined {
		r := j.r
		if r.runningOn == ins && r.seq == j.n && r.Generated() == 1 && !r.Migrating {
			plan.newDecodes = append(plan.newDecodes, r)
		}
	}
	clear(ins.joined)
	ins.joined = ins.joined[:0]
	if ins.cfg.AllowPrefill {
		chunked := ins.cfg.ChunkSize > 0 && (ins.cfg.AlwaysChunk || len(ins.running) > 0)
		if chunked {
			ins.fillChunked(plan)
		} else {
			ins.fillWholePrompts(plan)
		}
	}
	return plan
}

// fillWholePrompts batches entire prompts FCFS up to MaxPrefillTokens.
func (ins *Instance) fillWholePrompts(plan *passPlan) {
	b := &plan.batch
	budget := ins.cfg.MaxPrefillTokens
	for _, r := range ins.prefillQ {
		if r.inPass {
			continue // already in a pipelined pass in flight
		}
		n := r.PrefillRemaining()
		if n > budget && len(plan.prefillSegs) > 0 {
			break // keep FCFS: stop at the first request that doesn't fit
		}
		if !ins.ensureKV(r) {
			break // head-of-line blocks until space frees
		}
		if rem := r.PrefillRemaining(); rem < n {
			n = rem // a prefix-cache hit during allocation shrank the prefill
		}
		seg := perf.PrefillSeg{NewTokens: n, CtxBefore: r.PrefillDone}
		b.Prefill = append(b.Prefill, seg)
		plan.prefillSegs = append(plan.prefillSegs, prefillSeg{r: r, tokens: n})
		r.inPass = true
		ins.startPrefillOnce(r)
		budget -= n
		if budget <= 0 {
			break
		}
	}
}

// fillChunked batches up to ChunkSize new prefill tokens FCFS.
func (ins *Instance) fillChunked(plan *passPlan) {
	b := &plan.batch
	budget := ins.cfg.ChunkSize
	for _, r := range ins.prefillQ {
		if budget <= 0 {
			break
		}
		if r.inPass {
			continue
		}
		if !ins.ensureKV(r) {
			break
		}
		n := r.PrefillRemaining()
		if n > budget {
			n = budget
		}
		b.Prefill = append(b.Prefill, perf.PrefillSeg{NewTokens: n, CtxBefore: r.PrefillDone})
		plan.prefillSegs = append(plan.prefillSegs, prefillSeg{r: r, tokens: n})
		r.inPass = true
		ins.startPrefillOnce(r)
		budget -= n
	}
}

// ensureKV allocates prompt+1 tokens for a request about to prefill here.
func (ins *Instance) ensureKV(r *Req) bool {
	return ins.AllocatePrefillKV(r)
}

// AllocatePrefillKV reserves KV for a request about to prefill on this
// instance. With prefix caching enabled on the manager and prefix
// identity on the request, shared blocks are acquired instead of fresh
// ones: hit tokens count as already prefilled (shrinking the prefill
// work by the hit length), and any hit blocks demoted to the host tier
// charge their PCIe restore time as a swap-in stall before the pass
// runs. Exported so the serve layer's decode-side assist path allocates
// through the same logic.
func (ins *Instance) AllocatePrefillKV(r *Req) bool {
	kv := ins.cfg.KV
	if kv.Has(r.KVID()) {
		return true
	}
	if kv.PrefixEnabled() && r.W.PrefixGroup != 0 && r.PrefillDone == 0 {
		acq, err := kv.AllocatePrefixed(r.KVID(), r.W.PromptTokens+1, r.W.PrefixGroup, r.W.PrefixTokens)
		if err != nil {
			return false
		}
		if hit := acq.HitTokens; hit > 0 {
			// At least the last prompt token is always computed.
			if hit > r.W.PromptTokens-1 {
				hit = r.W.PromptTokens - 1
			}
			r.PrefixHit = hit
			r.PrefillDone = hit
		}
		if acq.RestoredTokens > 0 {
			if ins.cfg.HostLink != nil {
				ins.cfg.HostLink.AccountBytes(float64(acq.RestoredTokens) * ins.cfg.CM.Cfg.KVBytesPerToken())
			}
			ins.stall(ins.swapTime(acq.RestoredTokens), trace.KindSwapIn, r)
		}
		return true
	}
	return kv.Allocate(r.KVID(), r.W.PromptTokens+1) == nil
}

func (ins *Instance) startPrefillOnce(r *Req) {
	if r.Phase != PhasePrefilling {
		r.Phase = PhasePrefilling
		if ins.hooks.OnPrefillStart != nil {
			ins.hooks.OnPrefillStart(r)
		}
	}
}

// apply commits a completed pass.
func (ins *Instance) apply(plan *passPlan) {
	// Prefill progress.
	for _, seg := range plan.prefillSegs {
		seg.r.inPass = false
		if seg.r.Phase == PhaseAborted {
			continue // cancelled mid-pass; already dequeued and released
		}
		seg.r.PrefillDone += seg.tokens
		if seg.r.PrefillComplete() {
			ins.dequeuePrefill(seg.r)
			ins.finishPrefill(seg.r)
		}
	}
	if plan.batch.DecodeReqs > 0 {
		ins.applyDecodes()
	}
	ins.sampleCounters()
}

// applyDecodes commits a decode pass's tokens. A request evicted or
// drained (migration) after the pass formed — possibly running elsewhere
// now — is no longer in the batch and loses its token; one that joined
// after it formed gets none. Every other request in the batch gains one
// at once through passes; only the due requests are visited, in batch
// order, so completions, grows and evictions happen where a visit of the
// whole batch would have them.
func (ins *Instance) applyDecodes() {
	p := ins.passes + 1
	l := &ins.due[p&(len(ins.due)-1)]
	list := *l
	slices.SortFunc(list, func(a, b batchRef) int { return cmp.Compare(a.r.key, b.r.key) })
	clear(ins.departed)
	ins.departed = ins.departed[:0]
	ins.applying = true
	for _, e := range list {
		if r := e.r; r.runningOn == ins && r.seq == e.n && r.due == p {
			ins.cursor = r.key
			ins.visit(r, p)
		}
	}
	ins.applying = false
	ins.sumCtx += len(ins.running) - ins.ahead
	ins.passes, ins.ahead, ins.pending = p, 0, false
	clear(list)
	*l = list[:0]
}

// visit gives a due request pass p's token, then completes it or grows
// its KV (evicting under pressure) and schedules its next visit.
func (ins *Instance) visit(r *Req, p int) {
	r.gen += ins.gained(r) + 1
	r.mark = p
	ins.ahead++
	ins.sumCtx++
	ins.visiting = r
	if r.Finished() {
		ins.RemoveRunning(r)
		ins.visiting = nil
		r.Phase = PhaseDone
		ins.ReleaseKV(r)
		if ins.hooks.OnComplete != nil {
			ins.hooks.OnComplete(r)
		}
		return
	}
	ins.growOrPreempt(r)
	ins.visiting = nil
	if r.runningOn != ins {
		return // evicted
	}
	r.fresh = false
	r.key = r.seq
	ins.schedule(r, p+ins.dueIn(r))
}

// dueIn is how many passes from now r must be visited again: when it
// finishes, when its next token no longer fits its blocks, or one block of
// passes ahead, whichever comes first. r's KV has just grown to its
// context.
func (ins *Instance) dueIn(r *Req) int {
	n := r.W.OutputTokens - r.gen
	if room := r.kv.Cap() - r.Ctx() + 1; room < n {
		n = room
	}
	return min(n, ins.cfg.KV.BlockSize())
}

// sampleCounters records the instance's occupancy timeseries at pass
// boundaries — the only instants the values change. The exporter turns
// these into Perfetto counter tracks; sampling on simulator events (not a
// wall-clock ticker) keeps overhead zero when tracing is off and exact
// when it is on.
func (ins *Instance) sampleCounters() {
	t := ins.cfg.Tracer
	if t == nil {
		return
	}
	now := ins.sim.Now()
	name := ins.cfg.Name
	t.Counter(name+"/running", now, float64(len(ins.running)))
	t.Counter(name+"/queued", now, float64(len(ins.prefillQ)+len(ins.assistQ)+len(ins.admitQ)))
	t.Counter(name+"/kv_util", now, ins.cfg.KV.Utilization())
}

// finishPrefill handles full-prompt completion: the first output token
// exists now.
func (ins *Instance) finishPrefill(r *Req) {
	if r.gen == 0 {
		r.gen = 1
	}
	if ins.hooks.OnFirstToken != nil {
		ins.hooks.OnFirstToken(r)
	}
	if r.Finished() { // single-token outputs complete at prefill
		r.Phase = PhaseDone
		ins.ReleaseKV(r)
		if ins.hooks.OnComplete != nil {
			ins.hooks.OnComplete(r)
		}
		return
	}
	if ins.hooks.OnPrefillDone != nil {
		ins.hooks.OnPrefillDone(r)
		return
	}
	// Default policy (co-located engine): join the local decode batch.
	ins.AdmitDecode(r)
}

func (ins *Instance) dequeuePrefill(r *Req) {
	for i, x := range ins.prefillQ {
		if x == r {
			ins.prefillQ = append(ins.prefillQ[:i], ins.prefillQ[i+1:]...)
			return
		}
	}
}

// growOrPreempt extends r's KV by one token, evicting low-priority
// requests (LIFO — latest admitted first, vLLM's policy) until it fits.
func (ins *Instance) growOrPreempt(r *Req) {
	kv := ins.cfg.KV
	for {
		if !r.kv.LiveOn(kv) {
			r.kv = kv.Alloc(r.KVID())
		}
		err := r.kv.Grow(r.Ctx())
		if err == nil {
			return
		}
		victim := ins.pickVictim()
		if victim == nil {
			// Nothing left to evict but the request itself.
			ins.evict(r)
			return
		}
		ins.evict(victim)
		if victim == r {
			return
		}
	}
}

// pickVictim returns the latest-admitted running request, preferring not
// to evict migrating requests (their copies are in flight).
func (ins *Instance) pickVictim() *Req {
	for i := len(ins.running) - 1; i >= 0; i-- {
		if !ins.running[i].Migrating {
			return ins.running[i]
		}
	}
	if len(ins.running) > 0 {
		return ins.running[len(ins.running)-1]
	}
	return nil
}

// evict swaps a running request out to host memory, or — if swap space is
// exhausted — releases its KV for full recomputation.
func (ins *Instance) evict(r *Req) {
	ins.RemoveRunning(r)
	r.Evictions++
	tokens, err := ins.cfg.KV.SwapOut(r.KVID())
	if err == nil {
		r.Phase = PhaseSwapped
		ins.swapped = append(ins.swapped, r)
		ins.stall(ins.swapTime(tokens), trace.KindSwapOut, r)
		return
	}
	// Recompute path: drop the KV and prefill again from scratch.
	ins.Recomputes++
	ins.ReleaseKV(r)
	r.PrefillDone = 0
	r.PrefixHit = 0
	r.Migrating = false
	if ins.hooks.OnEvicted != nil {
		r.Phase = PhaseWaiting
		ins.hooks.OnEvicted(r)
		return
	}
	ins.EnqueuePrefill(r)
}

// swapTime is the host-link time for a request's KV payload.
func (ins *Instance) swapTime(tokens int) sim.Duration {
	if ins.cfg.HostLink == nil {
		return 0
	}
	return ins.cfg.HostLink.TransferTime(float64(tokens) * ins.cfg.CM.Cfg.KVBytesPerToken())
}

// stall blocks the next iteration for d (swap transfers synchronize the
// engine, as in vLLM) and traces the swap span.
func (ins *Instance) stall(d sim.Duration, kind trace.Kind, r *Req) {
	if d <= 0 {
		return
	}
	now := ins.sim.Now()
	base := now
	if ins.stallUntil > base {
		base = ins.stallUntil
	}
	ins.stallUntil = base.Add(d)
	ins.SwapStall += d
	if ins.cfg.Tracer != nil {
		ins.cfg.Tracer.Add(ins.cfg.Name, kind, base, ins.stallUntil, fmt.Sprintf("req%d", r.W.ID))
	}
}

// recordUtilization charges the pass to the Fig. 2 gauges.
func (ins *Instance) recordUtilization(b perf.Batch, start sim.Time, dur sim.Duration) {
	if dur <= 0 {
		return
	}
	cost := ins.cfg.CM.BatchCost(b)
	gpus := float64(ins.cfg.CM.Place.GPUs())
	end := start.Add(dur)
	ins.ComputeGauge.AddInterval(start, end, cost.FLOPs()/(dur.Seconds()*ins.cfg.CM.GPU.FLOPS()*gpus))
	ins.BWGauge.AddInterval(start, end, cost.IOBytes()/(dur.Seconds()*ins.cfg.CM.GPU.BandwidthBytes()*gpus))
}

func (ins *Instance) tracePass(plan *passPlan, start sim.Time, dur sim.Duration) {
	if ins.cfg.Tracer == nil {
		return
	}
	b := plan.batch
	kind := trace.KindDecode
	switch {
	case len(plan.prefillSegs) > 0 && b.DecodeReqs > 0:
		kind = trace.KindHybrid
	case len(plan.prefillSegs) > 0:
		kind = trace.KindPrefill
		if plan.prefillSegs[0].tokens < plan.prefillSegs[0].r.W.PromptTokens {
			kind = trace.KindChunk
		}
	case ins.assist != nil:
		kind = trace.KindSBDDecode
	}
	ins.cfg.Tracer.Add(ins.cfg.Name, kind, start, start.Add(dur),
		fmt.Sprintf("pre=%d dec=%d", b.PrefillTokens(), b.DecodeReqs))
}
