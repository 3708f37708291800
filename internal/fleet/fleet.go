// Package fleet composes N independent serving replicas — each a
// complete prefill/decode group from internal/serve — behind a request
// router, and makes resilience the headline capability: per-replica
// health driven by the fault plan DSL (rcrash/rslow/rpart), router-level
// timeout failover of first-token-less requests to healthy replicas
// (idempotent re-prefill with wasted-work accounting), admission control
// and deadline shedding at the router, and a brown-out mode that defers
// failovers under overload, trading TTFT slack for goodput.
//
// The fleet is built as message-passing actors on a shard.Group: the
// router actor owns the request ledger, the workload source, admission
// and failover policy; each replica actor owns its replica's entire
// state and talks to the router only through netDelay-latent messages
// (submits, evictions, load reports, ledger forwards). With Shards > 1
// the replicas are partitioned across shard simulators that run in
// lockstep windows, one after another on the calling goroutine — and
// because actors share no mutable state and cross-shard messages merge in
// an order built only from per-actor quantities, the results are
// byte-identical at any shard count: same seed, same plan ⇒ same Result,
// same DecisionLog.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"windserve/internal/elastic"
	"windserve/internal/fault"
	"windserve/internal/kvcache"
	"windserve/internal/metrics"
	"windserve/internal/sched"
	"windserve/internal/serve"
	"windserve/internal/shard"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

const (
	// netDelay is the virtual router↔replica message latency: every
	// dispatch, eviction, load report, and ledger write crosses it. It is
	// also the shard group's conservative lookahead — a larger value
	// means fewer barriers and staler routing views.
	netDelay sim.Duration = 0.005
	// loadReportEvery is how often a busy replica self-reports queue
	// depth and in-flight count to the router (unchanged loads are
	// suppressed).
	loadReportEvery sim.Duration = 0.025
	// maxFailovers caps how many times one request may be failed over
	// before the router gives up and aborts it.
	maxFailovers = 2
	// brownoutSlack multiplies FailoverTimeout during brown-out.
	brownoutSlack = 2.0
)

// Config describes one fleet experiment.
type Config struct {
	// Replica is the per-replica serving configuration (model, placements,
	// instance counts). Shed and Faults must be zero: the fleet owns
	// shedding and fault injection, and names each replica itself.
	Replica serve.Config
	// NumReplicas deploys that many identical replicas (≥1).
	NumReplicas int

	// Shards partitions the replicas across this many shard simulators
	// (the router on shard 0, replica i on shard i % Shards), all run on
	// the calling goroutine. Results are byte-identical at any value; only
	// ShardStats differ. Default 1; clamped to NumReplicas.
	Shards int
	// ShardStats, when non-nil, receives the shard group's window/barrier
	// counters after the run. They are reported out of band because they
	// depend on the shard count — folding them into Result would break
	// digest identity across configurations.
	ShardStats *shard.Stats

	// Policy picks the router: "round-robin", "least-loaded", "weighted"
	// (health/SLO-aware scoring), or "prefix-affinity" (keep a session's
	// requests on the replica holding its cached prefix). Default
	// "round-robin".
	Policy string

	// FailoverTimeout fails a request over to another replica when it has
	// produced no first token this long after being routed — the hedge
	// against slow, partitioned, or silently sick replicas. 0 disables
	// timeout failover (crash failover still happens).
	FailoverTimeout sim.Duration

	// MaxQueueDepth rejects an arrival when the fleet-wide queue depth
	// (all replicas + parked orphans) is already at least this. 0
	// disables admission control.
	MaxQueueDepth int
	// TTFTDeadline aborts a request with no first token this long after
	// arrival, wherever it is. 0 disables deadline aborts.
	TTFTDeadline sim.Duration

	// BrownoutDepth enters brown-out when the mean queue depth per
	// healthy replica reaches it; the fleet exits at half that. While
	// browned out, timeout failovers are deferred by brownoutSlack× —
	// re-prefilling elsewhere would only deepen the overload. 0 disables.
	BrownoutDepth int

	// Elastic turns on runtime prefill↔decode role flipping: the fleet's
	// RoleController watches each replica's reported pressure signals and
	// flips instances between roles under hysteresis, cooldown, and a
	// minimum-per-role floor, draining in-flight work through the replica's
	// link mesh. The zero value keeps the fleet static and byte-identical.
	Elastic elastic.Policy

	// Faults is the chaos schedule: replica-granularity events
	// (rcrash/rslow/rpart) plus degrade and cancel. Instance-granularity
	// events (crash/slow) are rejected — address replicas in fleet plans.
	Faults *fault.Plan

	// Horizon bounds the drain after the last arrival (default 7200 s).
	Horizon sim.Duration

	// Decisions collects route/failover/health decisions; nil skips.
	// Actors log into private per-actor logs during the run; finish
	// merges them here in canonical (time, actor, append) order.
	Decisions *sched.DecisionLog
}

// Result is what one fleet run produces.
type Result struct {
	Policy   string
	Replicas int

	Requests   int
	Completed  int
	Unfinished int
	Aborted    int
	Rejected   int
	// Recovered counts requests that survived a replica crash or a router
	// failover (re-prefilled elsewhere) and whose record closed normally.
	Recovered int
	// FailedOver counts failover decisions (one request can fail over
	// more than once).
	FailedOver int
	// WastedTokens is the prefill+decode work discarded by evictions.
	WastedTokens int
	// BrownoutSec is the virtual time spent in brown-out.
	BrownoutSec float64
	// Flips counts executed role flips across the fleet; FlipMigrated is
	// the decode streams that changed instances mid-flight because of
	// them, FlipRequeued the queued prefills re-routed. All zero in a
	// static fleet.
	Flips        int
	FlipMigrated int
	FlipRequeued int
	// RecoverySec has one entry per replica-crash event: seconds from
	// crash onset until fleet completion throughput is back to ≥90% of
	// its pre-crash baseline, or -1 if it never recovered in the run.
	RecoverySec []float64

	Elapsed sim.Time
	Summary metrics.Summary

	// LiveKVBlocks is the replicas' GPU blocks still allocated at the end
	// (the sum of their Result.LiveKVBlocks; host-memory blocks are not
	// counted). Nonzero with Unfinished == 0 means a leak — except under
	// prefix caching, where resident cached blocks are expected to outlive
	// their requests.
	LiveKVBlocks int
	TransferGB   float64
	// PrefillKV / DecodeKV aggregate KV-manager counters across replicas
	// (prefix-cache hit ratios for the scenario exhibit come from here).
	PrefillKV, DecodeKV kvcache.Stats

	MeanPrefillUtil, MeanDecodeUtil float64
}

func (r *Result) String() string {
	s := r.Summary
	return fmt.Sprintf(
		"fleet/%s: %d replicas, %d reqs (%d unfinished) | TTFT p50=%v p99=%v | SLO %.1f%% | goodput %.2f rps | aborted %d, rejected %d, recovered %d, failovers %d, wasted %d tok",
		r.Policy, r.Replicas, r.Requests, r.Unfinished,
		s.TTFTP50, s.TTFTP99, 100*s.Attainment, s.GoodputRPS,
		r.Aborted, r.Rejected, r.Recovered, r.FailedOver, r.WastedTokens)
}

// reqState is the router's view of one in-flight request.
type reqState struct {
	w         workload.Request
	replica   int // owning replica, -1 while parked
	failovers int
	timerSeq  int // invalidates stale failover timers after a re-route
	// pendingEvict marks an eviction in flight toward the owning replica;
	// the router holds further action on the request until the reply (or
	// an orphan notice) resolves it. evictReason labels the failover the
	// eviction is for; abortReason, if set while the evict is pending,
	// converts the outcome into an abort.
	pendingEvict bool
	evictReason  string
	abortReason  string
}

// fleet is the router actor: the only actor that touches the recorder,
// the workload source, the routing policy, and the request state table.
// It runs on shard 0.
type fleet struct {
	g   *shard.Group[msg]
	s   *sim.Simulator // shard 0's simulator — the router's clock
	rec *metrics.Recorder
	cfg Config
	dec *sched.DecisionLog // router's private log; nil if cfg.Decisions is

	acts []*replicaActor
	// replicas is the router's delayed load view, one handle per replica
	// — the surface the routing policies read.
	replicas    []*replicaHandle
	down        []bool
	partitioned []bool
	pol         policy

	// rc is the elastic role controller; nil in a static fleet.
	rc *roleController

	state  map[uint64]*reqState
	parked []uint64 // FIFO of requests waiting for any healthy replica

	recovered map[uint64]bool // requests that failed over and were re-routed
	// recoveredDone counts completions of recovered requests: exactly
	// once, since a request completes or aborts, never both.
	recoveredDone int
	completed     int // completions observed via mComplete
	aborted       int // router-side aborts (parked, given-up, evict-aborted)
	rejected      int
	failovers     int
	wasted        int

	brownout      bool
	brownoutSince sim.Time
	brownoutSec   float64

	// completions[i] counts records closed in virtual second i — the
	// recovery-time signal. Bucketed by the completion's true event time,
	// not its (netDelay-later) application time.
	completions []int

	// arr is the front door the testbed runner shares: one pending
	// arrival event, validated, recorded, then admitted here under shed,
	// the admission rule the runner shares too, whose TTFT deadlines
	// abort through deadlineAbort.
	arr       serve.Arrivals
	shed      serve.ShedPolicy
	deadlines *sim.Timers[uint64]
	// hedges holds the failover timers, deferred the ones a brown-out
	// re-arms; nil when FailoverTimeout is 0.
	hedges, deferred *sim.Timers[failoverTimer]
}

// failoverTimer is one armed failover timer: the request it hedges and
// the timerSeq it was armed under.
type failoverTimer struct {
	id  uint64
	seq int
}

func (c *Config) validate() error {
	if c.NumReplicas < 1 {
		return fmt.Errorf("fleet: NumReplicas %d < 1", c.NumReplicas)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Shards", c.Shards},
		{"MaxQueueDepth", c.MaxQueueDepth},
		{"BrownoutDepth", c.BrownoutDepth},
	} {
		if f.v < 0 {
			return fmt.Errorf("fleet: %s %d is negative", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"FailoverTimeout", float64(c.FailoverTimeout)},
		{"TTFTDeadline", float64(c.TTFTDeadline)},
		{"Horizon", float64(c.Horizon)},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fleet: %s %g must be finite and non-negative", f.name, f.v)
		}
	}
	if c.FailoverTimeout > 0 && c.FailoverTimeout < sim.MinPeriod {
		return fmt.Errorf("fleet: FailoverTimeout %v is below the %v minimum period (0 disables it)",
			c.FailoverTimeout, sim.MinPeriod)
	}
	if err := c.Elastic.Validate(); err != nil {
		return err
	}
	if _, err := newPolicy(c.Policy); err != nil {
		return err
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		if err := c.Faults.ValidateTargets(0, 0, c.NumReplicas); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	return nil
}

func (c *Config) fillDefaults() {
	if c.Policy == "" {
		c.Policy = "round-robin"
	}
	if c.Horizon <= 0 {
		c.Horizon = sim.Seconds(7200)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards > c.NumReplicas {
		c.Shards = c.NumReplicas
	}
	c.Elastic = c.Elastic.WithDefaults()
}

// Run executes one fleet experiment over a materialized trace.
func Run(cfg Config, reqs []workload.Request) (*Result, error) {
	return RunFrom(cfg, workload.NewSliceSource(reqs))
}

// RunFrom is Run fed from a pull-based request source, so a 100k-request
// chaos exhibit never materializes its trace.
func RunFrom(cfg Config, src workload.Source) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()

	// The lookahead may never exceed the drain cap.
	g := shard.NewGroup[msg](cfg.Shards, min(netDelay, cfg.Horizon))
	f := &fleet{
		g: g, s: g.Shard(0).Sim(), rec: cfg.Replica.Stream.Recorder(cfg.Replica.SLO), cfg: cfg,
		down:        make([]bool, cfg.NumReplicas),
		partitioned: make([]bool, cfg.NumReplicas),
		state:       make(map[uint64]*reqState),
		recovered:   make(map[uint64]bool),
		shed:        serve.ShedPolicy{MaxQueueDepth: cfg.MaxQueueDepth, TTFTDeadline: cfg.TTFTDeadline},
	}
	f.deadlines = f.shed.Deadlines(f.s, f.rec, f.deadlineAbort)
	if cfg.FailoverTimeout > 0 {
		f.hedges = sim.NewTimers(f.s, cfg.FailoverTimeout, f.failoverTimerFired)
		extra := sim.Duration(float64(cfg.FailoverTimeout) * (brownoutSlack - 1))
		if extra > 0 {
			f.deferred = sim.NewTimers(f.s, extra, f.failoverTimerFired)
		}
	}
	if cfg.Decisions != nil {
		f.dec = sched.NewDecisionLog()
	}
	f.pol, _ = newPolicy(cfg.Policy)
	for i := 0; i < cfg.NumReplicas; i++ {
		ra := &replicaActor{f: f, idx: i, sh: g.Shard(i % cfg.Shards)}
		ra.reportFn = ra.report
		rcfg := cfg.Replica
		if cfg.Decisions != nil {
			rcfg.Decisions = sched.NewDecisionLog()
		} else {
			rcfg.Decisions = nil
		}
		rp, err := serve.NewReplica(ra.sh.Sim(), replicaLedger{ra: ra}, rcfg, fmt.Sprintf("r%d", i), cfg.Elastic.Enabled)
		if err != nil {
			return nil, err
		}
		ra.rp = rp
		f.acts = append(f.acts, ra)
		f.replicas = append(f.replicas, &replicaHandle{name: rp.Name()})
	}
	for i := 0; i < cfg.Shards; i++ {
		g.Shard(i).OnMessage(f.dispatch)
	}
	if err := f.installFaults(); err != nil {
		return nil, err
	}
	if cfg.Elastic.Enabled {
		rc, err := newRoleController(f)
		if err != nil {
			return nil, err
		}
		f.rc = rc
	}

	f.arr.Start(f.s, f.rec, src, f.admit, f.arrivalsEnded)

	g.Run()

	if err := f.arr.Err(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if cfg.ShardStats != nil {
		*cfg.ShardStats = g.Stats()
	}
	return f.finish(), nil
}

// dispatch is every shard's message handler: deliveries address an actor,
// and the destination actor's state lives on the delivering shard.
func (f *fleet) dispatch(src int, m msg) {
	if m.to == 0 {
		f.routerMsg(src-1, m)
		return
	}
	f.acts[m.to-1].handle(m)
}

// sendTo posts a message from the router to replica idx.
func (f *fleet) sendTo(idx int, m msg) {
	m.to = idx + 1
	f.g.Shard(0).Send(idx%f.cfg.Shards, 0, netDelay, m)
}

// routerMsg handles one replica→router message. idx is the sender.
func (f *fleet) routerMsg(idx int, m msg) {
	switch m.kind {
	case mLoad:
		h := f.replicas[idx]
		h.q, h.inflight, h.bump = m.a, m.b, 0
		h.sig = m.ld
	case mFlipDone:
		f.rc.flipDone(idx, m)
	case mPrefillStart:
		if f.rec.InFlight(m.id) {
			f.rec.PrefillStart(m.id, m.t)
		}
	case mFirstToken:
		if f.rec.InFlight(m.id) {
			f.rec.FirstToken(m.id, m.t)
		}
	case mDecodeStart:
		if f.rec.InFlight(m.id) {
			f.rec.DecodeStart(m.id, m.t)
		}
	case mComplete:
		f.rec.Complete(m.id, m.t)
		f.completed++
		if f.recovered[m.id] {
			f.recoveredDone++
		}
		sec := int(float64(m.t))
		for len(f.completions) <= sec {
			f.completions = append(f.completions, 0)
		}
		f.completions[sec]++
		delete(f.state, m.id)
		f.updateBrownout()
	case mAbortRec:
		if f.rec.InFlight(m.id) {
			f.rec.Abort(m.id, m.t, m.a)
		}
	case mEvictReply:
		f.evictReply(idx, m)
	case mOrphan:
		f.orphanReturned(m)
	}
}

// arrivalsEnded caps the shard group once the front door closes: at the
// drain horizon past the last arrival, or at once if an invalid arrival
// ended the run.
func (f *fleet) arrivalsEnded() {
	if f.arr.Err() != nil {
		f.g.SetEnd(f.s.Now())
		return
	}
	f.g.SetEnd(f.arr.Last().Add(f.cfg.Horizon))
}

// admit sheds or routes one recorded arrival.
func (f *fleet) admit(w workload.Request) {
	f.updateBrownout()
	if !f.shed.Admit(f.s, f.rec, w.ID, f.totalQueueDepth, f.deadlines) {
		f.rejected++
		f.dec.AddRoute(f.s.Now(), w.ID, "router", "admission-reject")
		return
	}
	st := &reqState{w: w, replica: -1}
	f.state[w.ID] = st
	f.rc.kick()
	f.route(st, "")
}

// deadlineAbort is the shed policy's expire hook: the request missed its
// TTFT deadline.
func (f *fleet) deadlineAbort(id uint64) { f.abort(id, "deadline-abort") }

// route places a request on a healthy replica (or parks it). reason
// overrides the policy's decision label — failover paths pass theirs.
func (f *fleet) route(st *reqState, reason string) {
	avoid := st.replica
	j := f.pol.pick(f, st.w, avoid)
	if j < 0 {
		st.replica = -1
		f.parked = append(f.parked, st.w.ID)
		f.dec.AddRoute(f.s.Now(), st.w.ID, "router", "parked-no-healthy-replica")
		return
	}
	st.replica = j
	st.timerSeq++
	if reason == "" {
		reason = f.pol.name()
	}
	f.dec.AddRoute(f.s.Now(), st.w.ID, f.replicas[j].Name(), reason)
	f.replicas[j].bump++
	f.sendTo(j, msg{kind: mSubmit, id: st.w.ID, w: st.w})
	f.armFailoverTimer(st)
}

// armFailoverTimer hedges a routed request: if it still has no first
// token when the (possibly brown-out-stretched) timeout fires, it moves.
func (f *fleet) armFailoverTimer(st *reqState) {
	if f.hedges != nil {
		f.hedges.Add(failoverTimer{st.w.ID, st.timerSeq})
	}
}

func (f *fleet) failoverTimerFired(t failoverTimer) {
	st, ok := f.state[t.id]
	if !ok || st.timerSeq != t.seq || st.replica < 0 || st.pendingEvict {
		return
	}
	if !f.rec.InFlight(t.id) || f.rec.HasFirstToken(t.id) {
		return
	}
	f.updateBrownout()
	if f.brownout && f.deferred != nil {
		// Deferred, not cancelled: re-check after the slack interval. If
		// the brown-out has ended by then the request finally moves.
		f.deferred.Add(t)
		return
	}
	f.startEvict(st, "failover-timeout")
}

// startEvict begins a failover: ask the owning replica to give the
// request back. The outcome arrives as mEvictReply (or as mOrphan, if a
// crash beats the eviction there).
func (f *fleet) startEvict(st *reqState, reason string) {
	st.pendingEvict = true
	st.evictReason = reason
	st.timerSeq++ // a pending failover timer must not re-trigger mid-evict
	f.sendTo(st.replica, msg{kind: mEvict, id: st.w.ID, seq: st.timerSeq})
}

// evictReply resolves an eviction the router started. ok=false means the
// request left the replica first (completed, or crash-orphaned — both
// reach the router on their own paths).
func (f *fleet) evictReply(idx int, m msg) {
	st, ok := f.state[m.id]
	if !ok || !st.pendingEvict || st.timerSeq != m.seq {
		return
	}
	st.pendingEvict = false
	reason := st.evictReason
	st.evictReason = ""
	if !m.ok {
		return
	}
	f.wasted += m.a
	if reason == "failover-timeout" {
		f.pol.observeFailure(f, idx, 1)
	}
	if st.abortReason != "" {
		// An abort landed while the evict was in flight: the request is
		// now off every replica with its record open — finalize here.
		f.rec.Abort(m.id, f.s.Now(), m.b)
		f.aborted++
		delete(f.state, m.id)
		return
	}
	f.failover(st, m.b, reason)
}

// orphanReturned handles a request a replica crash threw back.
func (f *fleet) orphanReturned(m msg) {
	st, ok := f.state[m.id]
	if !ok {
		// An abort was already in flight toward the crashed replica; it
		// will find nothing there to finalize, so finalize here.
		if f.rec.InFlight(m.id) {
			f.rec.Abort(m.id, f.s.Now(), m.b)
			f.aborted++
		}
		return
	}
	if st.pendingEvict {
		// The crash superseded an in-flight eviction; its reply (ok=false)
		// is void. An abort queued behind that eviction still wins.
		st.pendingEvict = false
		st.evictReason = ""
		if st.abortReason != "" {
			f.rec.Abort(m.id, f.s.Now(), m.b)
			f.aborted++
			delete(f.state, m.id)
			return
		}
	}
	f.wasted += m.a
	f.failover(st, m.b, "failover-crash")
}

// failover re-routes an evicted request (record still open) to another
// healthy replica, or gives up after maxFailovers. generated is the token
// count the record closes with if the router gives up.
func (f *fleet) failover(st *reqState, generated int, reason string) {
	id := st.w.ID
	st.failovers++
	f.failovers++
	if st.failovers > maxFailovers {
		f.rec.Abort(id, f.s.Now(), generated)
		f.aborted++
		delete(f.state, id)
		f.dec.AddRoute(f.s.Now(), id, "router", "failover-give-up")
		return
	}
	f.recovered[id] = true
	f.route(st, reason)
}

// abort finalizes a request wherever it is: parked at the router (closed
// immediately), on a replica (an mAbort crosses the wire; the replica's
// ledger forward closes the record), or mid-eviction (the evict outcome
// finalizes it).
func (f *fleet) abort(id uint64, reason string) {
	st, ok := f.state[id]
	if !ok {
		return
	}
	f.dec.AddRoute(f.s.Now(), id, "router", reason)
	if st.pendingEvict {
		st.abortReason = reason
		return
	}
	if st.replica >= 0 {
		f.sendTo(st.replica, msg{kind: mAbort, id: id})
	} else {
		f.unpark(id)
		f.rec.Abort(id, f.s.Now(), 0)
		f.aborted++
	}
	delete(f.state, id)
}

// unpark removes one id from the parked queue.
func (f *fleet) unpark(id uint64) {
	for i, p := range f.parked {
		if p == id {
			f.parked = append(f.parked[:i], f.parked[i+1:]...)
			return
		}
	}
}

// drainParked re-routes parked requests now that a replica came back.
func (f *fleet) drainParked() {
	if len(f.parked) == 0 {
		return
	}
	ids := f.parked
	f.parked = nil
	for _, id := range ids {
		st, ok := f.state[id]
		if !ok || st.replica >= 0 {
			continue
		}
		f.route(st, "unparked")
	}
}

// cancelFrac aborts the client-cancellation fault's victims among the
// open requests.
func (f *fleet) cancelFrac(frac float64, seed int64) {
	for _, id := range fault.CancelVictims(f.rec.OpenIDs(), frac, seed) {
		f.abort(id, "client-cancel")
	}
}

// totalQueueDepth is the fleet-wide admission signal, read off the
// delayed load view.
func (f *fleet) totalQueueDepth() int {
	n := len(f.parked)
	for _, h := range f.replicas {
		n += h.QueueDepth()
	}
	return n
}

// healthy reports whether the router may route to replica i.
func (f *fleet) healthy(i int) bool {
	return !f.down[i] && !f.partitioned[i]
}

func (f *fleet) numHealthy() int {
	n := 0
	for i := range f.replicas {
		if f.healthy(i) {
			n++
		}
	}
	return n
}

// updateBrownout applies the overload hysteresis — enter at BrownoutDepth
// mean queue depth per healthy replica, exit at half — through the same
// elastic helpers the role controller's flip deferral reads, so the two
// mechanisms can never disagree about what "overloaded" means.
func (f *fleet) updateBrownout() {
	d := f.cfg.BrownoutDepth
	if d == 0 {
		return
	}
	nh := f.numHealthy()
	if nh == 0 {
		return // no denominator: hold the current state
	}
	mean := elastic.MeanQueueDepth(f.totalQueueDepth(), nh)
	now := elastic.OverloadHysteresis(f.brownout, mean, d)
	if now && !f.brownout {
		f.brownout = true
		f.brownoutSince = f.s.Now()
		f.dec.AddRoute(f.s.Now(), 0, "router", "brownout-enter")
	} else if !now && f.brownout {
		f.brownout = false
		f.brownoutSec += f.s.Now().Sub(f.brownoutSince).Seconds()
		f.dec.AddRoute(f.s.Now(), 0, "router", "brownout-exit")
	}
}

// installFaults compiles the chaos plan into router-side hooks. Fault
// events fire on the router's shard; effects cross to the replicas as
// messages, so health flips at the router the instant the event fires and
// at the replica one netDelay later — in that order, on every shard count.
func (f *fleet) installFaults() error {
	if f.cfg.Faults == nil {
		return nil
	}
	h := fault.Hooks{
		ReplicaCrash: func(idx int) {
			if f.down[idx] {
				return
			}
			f.down[idx] = true
			f.dec.AddRoute(f.s.Now(), 0, f.replicas[idx].Name(), "replica-crash")
			f.sendTo(idx, msg{kind: mCrash})
			f.pol.observeFailure(f, idx, 4)
		},
		ReplicaRestore: func(idx int) {
			if !f.down[idx] {
				return
			}
			f.down[idx] = false
			f.dec.AddRoute(f.s.Now(), 0, f.replicas[idx].Name(), "replica-restore")
			// Restore crosses before any submit the drain routes to it:
			// messages to one destination deliver in send order.
			f.sendTo(idx, msg{kind: mRestore})
			f.drainParked()
		},
		SetReplicaSlowdown: func(idx int, factor float64) {
			f.sendTo(idx, msg{kind: mSlowdown, f: factor})
		},
		SetPartition: func(idx int, partitioned bool) {
			f.partitioned[idx] = partitioned
			if partitioned {
				f.dec.AddRoute(f.s.Now(), 0, f.replicas[idx].Name(), "partition-start")
				// The replica keeps executing, but the router writes off
				// its first-token-less requests as timed out and moves
				// them; requests already streaming ride the partition out.
				var move []uint64
				for id, st := range f.state {
					if st.replica == idx && !st.pendingEvict && !f.rec.HasFirstToken(id) {
						move = append(move, id)
					}
				}
				sort.Slice(move, func(a, b int) bool { return move[a] < move[b] })
				for _, id := range move {
					f.startEvict(f.state[id], "failover-partition")
				}
				f.pol.observeFailure(f, idx, 2)
			} else {
				f.dec.AddRoute(f.s.Now(), 0, f.replicas[idx].Name(), "partition-heal")
				f.drainParked()
			}
		},
		SetLinkDegrade: func(frac float64) {
			for i := range f.acts {
				f.sendTo(i, msg{kind: mDegrade, f: frac})
			}
		},
		Cancel: f.cancelFrac,
	}
	return fault.Apply(f.s, f.cfg.Faults, h)
}

// finish assembles the result after the shard group drains (single-
// threaded again: the workers joined inside Run).
func (f *fleet) finish() *Result {
	elapsed := f.g.LastFired()
	if f.g.AnyPending() {
		// Events remain past the cap — the clock stopped at the horizon,
		// exactly as a sequential Run(horizon) leaves it.
		elapsed = f.arr.Last().Add(f.cfg.Horizon)
	}
	res := &Result{
		Policy:       f.cfg.Policy,
		Replicas:     f.cfg.NumReplicas,
		Requests:     f.arr.Count(),
		Unfinished:   f.rec.Outstanding(),
		Rejected:     f.rejected,
		FailedOver:   f.failovers,
		WastedTokens: f.wasted,
		Elapsed:      elapsed,
	}
	if f.brownout {
		f.brownoutSec += elapsed.Sub(f.brownoutSince).Seconds()
		f.brownout = false
	}
	res.BrownoutSec = f.brownoutSec
	if f.rc != nil {
		res.Flips, res.FlipMigrated, res.FlipRequeued = f.rc.flips, f.rc.migrated, f.rc.requeued
	}
	res.Aborted = f.aborted
	for _, ra := range f.acts {
		res.Aborted += ra.rp.Aborted()
	}
	// Counted as completions fire, not derived — so the lifecycle
	// partition (Completed+Aborted+Rejected+Unfinished == Requests) is a
	// checkable invariant, not a tautology.
	res.Completed = f.completed
	res.Recovered = f.recoveredDone
	res.Summary = f.rec.Summary()
	for _, ra := range f.acts {
		st := ra.rp.Stats(res.Elapsed)
		res.LiveKVBlocks += st.LiveKVBlocks
		res.TransferGB += st.TransferGB
		res.PrefillKV.Accumulate(st.PrefillKV)
		res.DecodeKV.Accumulate(st.DecodeKV)
		res.MeanPrefillUtil += st.PrefillComputeUtil
		res.MeanDecodeUtil += st.DecodeComputeUtil
	}
	res.MeanPrefillUtil /= float64(len(f.acts))
	res.MeanDecodeUtil /= float64(len(f.acts))
	res.RecoverySec = f.recoveryTimes()
	if f.cfg.Decisions != nil {
		logs := make([]*sched.DecisionLog, 0, len(f.acts)+1)
		logs = append(logs, f.dec)
		for _, ra := range f.acts {
			logs = append(logs, ra.rp.Decisions())
		}
		f.cfg.Decisions.Absorb(logs...)
	}
	return res
}

// recoveryTimes measures, for each replica-crash event, how long fleet
// completion throughput took to return to ≥90% of its pre-crash
// baseline (mean over the 10 s before the crash, judged over forward
// 5 s windows). Purely virtual-time arithmetic — deterministic.
func (f *fleet) recoveryTimes() []float64 {
	if f.cfg.Faults == nil {
		return nil
	}
	var out []float64
	for _, e := range f.cfg.Faults.Events {
		if e.Kind != fault.ReplicaCrash {
			continue
		}
		out = append(out, f.recoveryAfter(float64(e.At)))
	}
	return out
}

func (f *fleet) recoveryAfter(crash float64) float64 {
	mean := func(from, to int) float64 {
		if from < 0 {
			from = 0
		}
		if to > len(f.completions) {
			to = len(f.completions)
		}
		if to <= from {
			return 0
		}
		n := 0
		for i := from; i < to; i++ {
			n += f.completions[i]
		}
		return float64(n) / float64(to-from)
	}
	c := int(crash)
	baseline := mean(c-10, c)
	if baseline == 0 {
		return 0 // nothing was flowing; trivially recovered
	}
	for t := c; t+5 <= len(f.completions); t++ {
		if mean(t, t+5) >= 0.9*baseline {
			return float64(t) - crash
		}
	}
	return -1
}
