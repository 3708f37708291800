package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"windserve/internal/engine"
	"windserve/internal/metrics"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// Ledger is the request-lifecycle surface a system writes through. A
// single-testbed run writes straight into a *metrics.Recorder; a fleet
// replica running on its own shard writes through a proxy that forwards
// each call — with its explicit timestamp — as a cross-shard message to
// the router, which owns the one real Recorder. Every method carries the
// event time, so applying a forwarded call later in wall-clock terms
// records exactly the same virtual-time fact.
type Ledger interface {
	Arrive(id uint64, promptTokens, outputTokens int, at sim.Time)
	Reject(id uint64, at sim.Time)
	PrefillStart(id uint64, at sim.Time)
	FirstToken(id uint64, at sim.Time)
	DecodeStart(id uint64, at sim.Time)
	Complete(id uint64, at sim.Time)
	Abort(id uint64, at sim.Time, emitted int)
	InFlight(id uint64) bool
	HasFirstToken(id uint64) bool
	OpenIDs() []uint64
}

// runner holds the state every system run shares: the simulator, the
// metrics recorder, and the request-lifecycle machinery (admission
// control, deadline aborts, cancellation faults, crash recovery
// accounting) that the three systems plug their policies into.
type runner struct {
	s   *sim.Simulator
	led Ledger
	// rec is led when the ledger is a real recorder (single-testbed
	// runs); nil on a fleet replica, whose router owns the recorder.
	// Only run() — never called on a replica — requires it.
	rec *metrics.Recorder
	cfg Config

	// live indexes in-flight requests by id so the lifecycle machinery
	// (deadline aborts, cancellation faults) can reach them without a
	// per-system lookup. Systems never touch it directly: admit adds,
	// recorderHooks' OnComplete and abortReq remove.
	live map[uint64]*engine.Req
	// recovered collects ids that survived an instance crash (re-prefilled
	// or restored from backup). A set, not a counter: one request can be
	// orphaned by several crashes but counts once.
	recovered map[uint64]bool

	aborted  int
	rejected int

	// queueDepth reports how many requests are waiting for prefill across
	// all instances — the admission-control signal. Systems set it before
	// arrivals start; nil disables shedding even if configured.
	queueDepth func() int
	// onAbort removes an aborted request from the owning system's
	// structures (queues, running batches, KV, transfer maps). The
	// request's Phase is already PhaseAborted when it is called.
	onAbort func(q *engine.Req)

	// Arrival streaming: one pending arrival event at a time. arrive pulls
	// nextReq from src, feeds it to submit, then schedules the successor —
	// so a million-request source never has more than one arrival event
	// pending, and arrivalFn (a method value built once) keeps the chain
	// allocation-free.
	src         workload.Source
	submit      func(q *engine.Req)
	arrivalFn   func()
	nextReq     workload.Request
	haveNext    bool
	arrivals    int
	lastArrival sim.Time
	// err ends the arrival chain: set when the source yields an invalid
	// arrival (out of order, negative tokens, or an ID still in flight),
	// surfaced by run.
	err error
}

func newRunner(cfg Config) (*runner, error) {
	rec := metrics.NewRecorder()
	if cfg.Stream.Enabled {
		rec = metrics.NewStreamingRecorder(cfg.SLO, cfg.Stream.MaxRecords)
	}
	return newRunnerOn(sim.New(), rec, cfg)
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
	return &runner{
		s:         s,
		led:       led,
		rec:       rec,
		cfg:       cfg,
		live:      make(map[uint64]*engine.Req),
		recovered: make(map[uint64]bool),
	}, nil
}

// scheduleStream feeds a request source into the system via submit,
// scheduling only the first arrival; each arrival event then pulls its
// successor from the source on demand. Sources must yield non-decreasing
// arrival times; the first one that does not ends the run with an error.
func (r *runner) scheduleStream(src workload.Source, submit func(*engine.Req)) {
	r.src, r.submit = src, submit
	r.arrivalFn = r.arrive
	r.pull()
}

// arrive handles one arrival event: admit (or shed) the due request, then
// chain the next arrival. A request reusing the ID of one still in flight
// ends the chain with an error instead.
func (r *runner) arrive() {
	w := r.nextReq
	if r.led.InFlight(w.ID) {
		r.err = fmt.Errorf("serve: request %d arrives at %v while a request with the same ID is still in flight; IDs must be unique",
			w.ID, w.Arrival)
		r.haveNext = false
		return
	}
	r.arrivals++
	r.lastArrival = w.Arrival
	r.admit(w)
	r.pull()
}

// pull takes the next request from the source and schedules its arrival.
// An arrival earlier than its predecessor, or one with a negative token
// count, ends the chain with an error.
func (r *runner) pull() {
	w, ok := r.src.Next()
	if ok && w.Arrival < r.lastArrival {
		r.err = fmt.Errorf("serve: request %d arrives at %v, before the previous arrival at %v; arrivals must be non-decreasing",
			w.ID, w.Arrival, r.lastArrival)
		ok = false
	}
	if ok && (w.PromptTokens < 0 || w.OutputTokens < 0) {
		r.err = fmt.Errorf("serve: request %d has %d prompt and %d output tokens; token counts must be non-negative",
			w.ID, w.PromptTokens, w.OutputTokens)
		ok = false
	}
	r.nextReq, r.haveNext = w, ok
	if ok {
		r.s.At(w.Arrival, r.arrivalFn)
	}
}

// admit applies the shed policy to one arrival: admission control first (a
// rejected request does no work at all), then a TTFT-deadline timer that
// aborts the request if it has produced no first token in time.
func (r *runner) admit(w workload.Request) {
	r.led.Arrive(w.ID, w.PromptTokens, w.OutputTokens, r.s.Now())
	if d := r.cfg.Shed.MaxQueueDepth; d > 0 && r.queueDepth != nil && r.queueDepth() >= d {
		r.led.Reject(w.ID, r.s.Now())
		r.rejected++
		return
	}
	q := engine.NewReq(w)
	r.live[w.ID] = q
	if dl := r.cfg.Shed.TTFTDeadline; dl > 0 {
		id := w.ID
		r.s.Schedule(dl, func() {
			if r.led.InFlight(id) && !r.led.HasFirstToken(id) {
				r.abortReq(id)
			}
		})
	}
	r.submit(q)
	if r.cfg.Tracer != nil && r.queueDepth != nil {
		r.cfg.Tracer.Counter("cluster/queue_depth", r.s.Now(), float64(r.queueDepth()))
	}
}

// abortReq terminates one in-flight request: finalize its record, flip
// its phase to PhaseAborted (so any engine pass or transfer callback
// still holding it skips it), then let the system scrub its structures.
func (r *runner) abortReq(id uint64) {
	q, ok := r.live[id]
	if !ok || !r.led.InFlight(id) {
		return
	}
	delete(r.live, id)
	r.led.Abort(id, r.s.Now(), q.Generated)
	r.aborted++
	q.Phase = engine.PhaseAborted
	if r.onAbort != nil {
		r.onAbort(q)
	}
}

// cancelFrac aborts a seeded-random fraction of the currently in-flight
// requests — the client-cancellation fault. The victim sample is drawn
// from the sorted open-id list with a dedicated PRNG so the same plan
// cancels the same requests on every system and every run.
func (r *runner) cancelFrac(frac float64, seed int64) {
	ids := r.led.OpenIDs()
	n := len(ids)
	k := int(math.Round(frac * float64(n)))
	if k <= 0 {
		return
	}
	if k > n {
		k = n
	}
	picks := rand.New(rand.NewSource(seed)).Perm(n)[:k]
	sort.Ints(picks)
	for _, i := range picks {
		r.abortReq(ids[i])
	}
}

// markRecovered notes that a request survived an instance crash.
func (r *runner) markRecovered(q *engine.Req) { r.recovered[q.W.ID] = true }

// run drains the simulation (bounded by the horizon past the last arrival)
// and assembles the shared parts of the result. With a pull-based source
// the last arrival time is unknown up front, so the run proceeds in two
// phases: step until the arrival chain ends (every event fired in this
// phase is at or before the final arrival, exactly as a bounded run would
// fire it), then drain the tail under the configured horizon.
func (r *runner) run(system string) (*Result, error) {
	for r.haveNext {
		if !r.s.Step() {
			break
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	r.s.Run(r.lastArrival.Add(r.cfg.Horizon))
	res := &Result{
		System:          system,
		Requests:        r.arrivals,
		Unfinished:      r.rec.Outstanding(),
		Elapsed:         r.s.Now(),
		Records:         r.rec.Completed(),
		AbortedRecords:  r.rec.Aborted(),
		RejectedRecords: r.rec.Rejected(),
		Aborted:         r.aborted,
		Rejected:        r.rejected,
		Recovered:       len(r.recovered),
	}
	if r.rec.Streaming() {
		res.Summary = r.rec.StreamSummary()
	} else {
		res.Summary = metrics.Summarize(res.Records, r.cfg.SLO)
	}
	return res, nil
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

// utilization extracts Fig. 2's mean utilizations from an instance over
// the run's elapsed span.
func utilization(ins *engine.Instance, elapsed sim.Time) (compute, bw float64) {
	span := sim.Duration(elapsed)
	return ins.ComputeGauge.MeanOver(span), ins.BWGauge.MeanOver(span)
}
