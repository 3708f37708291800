package serve

import (
	"fmt"
	"sort"

	"windserve/internal/cluster"
	"windserve/internal/engine"
	"windserve/internal/fault"
	"windserve/internal/kvcache"
	"windserve/internal/metrics"
	"windserve/internal/sim"
	"windserve/internal/workload"
	"windserve/internal/xfer"
)

// Ledger is the write-only request-lifecycle surface the engines report
// through. A single-testbed run writes straight into its
// *metrics.Recorder; a fleet replica running on its own shard writes
// through a proxy that forwards each call — with its explicit timestamp —
// as a cross-shard message to the router, which owns the one real
// Recorder. Every method carries the event time, so applying a forwarded
// call later in wall-clock terms records exactly the same virtual-time
// fact. Arrivals, rejections and lifecycle queries belong to the front
// door (Arrivals and the recorder behind it), never to a replica.
type Ledger interface {
	PrefillStart(id uint64, at sim.Time)
	FirstToken(id uint64, at sim.Time)
	DecodeStart(id uint64, at sim.Time)
	Complete(id uint64, at sim.Time)
	Abort(id uint64, at sim.Time, emitted int)
}

// runner holds the state every system run shares: the simulator, the
// metrics recorder, and the request-lifecycle machinery (admission
// control, deadline aborts, cancellation faults, crash recovery
// accounting) that the three systems plug their policies into.
type runner struct {
	s   *sim.Simulator
	led Ledger
	// rec is led when the ledger is a real recorder (single-testbed
	// runs): the front half — arrivals, shedding, deadline aborts,
	// cancellation — reads and writes it directly. Nil on a fleet
	// replica, whose router owns the recorder and the front door.
	rec *metrics.Recorder
	cfg Config

	// live indexes in-flight requests by id so the lifecycle machinery
	// (deadline aborts, cancellation faults) can reach them without a
	// per-system lookup. Systems never touch it directly: admit adds,
	// recorderHooks' OnComplete and abortReq remove.
	live map[uint64]*engine.Req
	// recovered counts requests that survived an instance crash (see
	// markRecovered).
	recovered int

	aborted  int
	rejected int

	// queueDepth reports how many requests are waiting for prefill across
	// all instances — the admission-control signal. Every system sets it
	// before arrivals start.
	queueDepth func() int
	// deadlines are the shed policy's TTFT-deadline timers, which abort
	// through abortReq; nil when the policy sets no deadline.
	deadlines *sim.Timers[uint64]
	// onAbort removes an aborted request from the owning system's
	// structures (queues, running batches, KV, transfer queue). The
	// request's Phase is already PhaseAborted when it is called.
	onAbort func(q *engine.Req)

	// arr is the front door; submit hands each admitted request to the
	// system.
	arr    Arrivals
	submit func(q *engine.Req)
}

func newRunner(cfg Config) (*runner, error) {
	return newRunnerOn(sim.New(), cfg.Stream.Recorder(cfg.SLO), cfg)
}

// newRunnerOn builds a runner on an existing simulator and ledger, so a
// fleet replica can live on its own shard simulator and report lifecycle
// events through a message-forwarding ledger. The caller drives the
// simulation.
func newRunnerOn(s *sim.Simulator, led Ledger, cfg Config) (*runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	rec, _ := led.(*metrics.Recorder)
	r := &runner{
		s:    s,
		led:  led,
		rec:  rec,
		cfg:  cfg,
		live: make(map[uint64]*engine.Req),
	}
	r.deadlines = cfg.Shed.Deadlines(s, rec, r.abortReq)
	return r, nil
}

// flight is a request's one allocation: the engine's Req, which it embeds
// and whose Owner points back at it, and the serving layer's state for it.
type flight struct {
	engine.Req
	// pi is the prefill-space index the request was routed to (for vLLM,
	// its replica), di its decode-space index (see pd), and backupAt the
	// prefill-space index holding its landed backup; noIdx when none.
	pi, di, backupAt int
	async            asyncXfer  // the KV copy overlapped with its prefill; zero when none
	mig              *migration // its live migration, or nil
	recovered        bool       // it survived an instance crash
}

// noIdx is a flight's unset instance index.
const noIdx = -1

// newFlight allocates an admitted request's flight and returns its Req.
func newFlight(w workload.Request) *engine.Req {
	f := &flight{Req: engine.Req{W: w}, pi: noIdx, di: noIdx, backupAt: noIdx}
	f.Owner = f
	return &f.Req
}

// fl returns the flight q belongs to.
func fl(q *engine.Req) *flight { return q.Owner.(*flight) }

// scheduleStream feeds a request source into the system via submit
// through the front door, which schedules only the first arrival; each
// arrival event then pulls its successor from the source on demand.
func (r *runner) scheduleStream(src workload.Source, submit func(*engine.Req)) {
	r.submit = submit
	r.arr.Start(r.s, r.rec, src, r.admit, nil)
}

// admit applies the shed policy to one recorded arrival (a rejected
// request does no work at all) and hands an admitted one to the system.
func (r *runner) admit(w workload.Request) {
	if !r.cfg.Shed.Admit(r.s, r.rec, w.ID, r.queueDepth, r.deadlines) {
		r.rejected++
		return
	}
	q := newFlight(w)
	r.live[w.ID] = q
	r.submit(q)
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Counter("cluster/queue_depth", r.s.Now(), float64(r.queueDepth()))
	}
}

// abortReq terminates one in-flight request: finalize its record, flip
// its phase to PhaseAborted (so any engine pass or transfer callback
// still holding it skips it), then let the system scrub its structures.
// live holds exactly the requests whose record is open here: admit adds
// after the arrival is recorded, and completion and abort remove before
// the record closes.
func (r *runner) abortReq(id uint64) {
	q, ok := r.live[id]
	if !ok {
		return
	}
	delete(r.live, id)
	r.led.Abort(id, r.s.Now(), q.Generated())
	r.aborted++
	q.Phase = engine.PhaseAborted
	if r.onAbort != nil {
		r.onAbort(q)
	}
}

// cancelFrac aborts the client-cancellation fault's victims among the
// currently in-flight requests.
func (r *runner) cancelFrac(frac float64, seed int64) {
	for _, id := range fault.CancelVictims(r.rec.OpenIDs(), frac, seed) {
		r.abortReq(id)
	}
}

// markRecovered notes that a request survived an instance crash. It
// counts once however many crashes orphan it.
func (r *runner) markRecovered(q *engine.Req) {
	if f := fl(q); !f.recovered {
		f.recovered = true
		r.recovered++
	}
}

// restart is scratch recovery for a request whose KV died in a crash: it
// forgets all progress (Req.Restart), counts as recovered, and goes back
// through the system's router as a fresh prefill.
func (r *runner) restart(q *engine.Req, route func(*engine.Req)) {
	q.Restart()
	r.markRecovered(q)
	route(q)
}

// liveOrphans filters a crash's orphans in place down to the requests
// still in flight; one already done or aborted needs no recovery.
func liveOrphans(orphans []*engine.Req) []*engine.Req {
	live := orphans[:0]
	for _, q := range orphans {
		if q.Phase != engine.PhaseDone && q.Phase != engine.PhaseAborted {
			live = append(live, q)
		}
	}
	return live
}

// run drains the simulation (bounded by the horizon past the last arrival)
// and assembles the shared parts of the result. With a pull-based source
// the last arrival time is unknown up front, so the run proceeds in two
// phases: step until the arrival chain ends (every event fired in this
// phase is at or before the final arrival, exactly as a bounded run would
// fire it), then drain the tail under the configured horizon.
func (r *runner) run(system string) (*Result, error) {
	for r.arr.Open() {
		if !r.s.Step() {
			break
		}
	}
	if err := r.arr.Err(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	r.s.Run(r.arr.Last().Add(r.cfg.Horizon))
	return &Result{
		System:          system,
		Requests:        r.arr.Count(),
		Unfinished:      r.rec.Outstanding(),
		Elapsed:         r.s.Now(),
		Records:         r.rec.Completed(),
		AbortedRecords:  r.rec.Aborted(),
		RejectedRecords: r.rec.Rejected(),
		Aborted:         r.aborted,
		Rejected:        r.rejected,
		Recovered:       r.recovered,
		Summary:         r.rec.Summary(),
	}, nil
}

// recorderHooks builds the metric-recording half of an instance's hooks;
// systems extend the returned struct with their policy callbacks.
func (r *runner) recorderHooks() engine.Hooks {
	return engine.Hooks{
		OnPrefillStart: func(q *engine.Req) { r.led.PrefillStart(q.W.ID, r.s.Now()) },
		OnFirstToken:   func(q *engine.Req) { r.led.FirstToken(q.W.ID, r.s.Now()) },
		OnPrefillDone:  nil, // system-specific; nil = admit locally
		OnDecodeStart:  func(q *engine.Req) { r.led.DecodeStart(q.W.ID, r.s.Now()) },
		OnComplete: func(q *engine.Req) {
			delete(r.live, q.W.ID)
			r.led.Complete(q.W.ID, r.s.Now())
		},
	}
}

// newInstance builds one engine instance on a planned assignment. ec
// names the instance and sets its role switches; newInstance fills in the
// rest: the cost model, a KV manager (with prefix caching when
// configured), a host swap link named host, the tracer, and the batch
// limits every instance shares.
func (r *runner) newInstance(a cluster.Assignment, ec engine.Config, host string, hooks engine.Hooks) (*engine.Instance, error) {
	cfg := r.cfg
	kv, err := kvcache.New(a.KVTokens, cpuSwapTokens, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	if cfg.Prefix.Enabled {
		kv.EnablePrefixCache(cfg.Prefix.Tiered)
	}
	ec.CM, ec.KV, ec.Tracer = a.CM, kv, cfg.Tracer
	ec.HostLink = xfer.NewLink(r.s, host, cfg.Topo.HostPath(), xfer.DefaultEfficiency)
	ec.ChunkSize, ec.MaxPrefillTokens, ec.MaxDecodeBatch = cfg.ChunkSize, cfg.MaxPrefillTokens, cfg.MaxDecodeBatch
	return engine.NewInstance(r.s, ec, hooks)
}

// fold adds one instance's end-of-run accounting into res: its KV
// counters into kv, its mean compute and bandwidth utilizations over the
// elapsed span into *cu and *bu (Fig. 2), and its swap stall and
// still-allocated blocks into the run totals.
func (res *Result) fold(ins *engine.Instance, kv *kvcache.Stats, cu, bu *float64) {
	kv.Accumulate(ins.KV().Stats())
	span := sim.Duration(res.Elapsed)
	*cu += ins.ComputeGauge.MeanOver(span)
	*bu += ins.BWGauge.MeanOver(span)
	res.SwapStallSec += ins.SwapStall.Seconds()
	res.LiveKVBlocks += ins.KV().UsedBlocks()
}

// sortedIDs returns the IDs of a request index ascending — deterministic
// recovery order.
func sortedIDs(m map[uint64]*engine.Req) []uint64 {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
