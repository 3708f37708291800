package fleet

import (
	"windserve/internal/serve"
	"windserve/internal/shard"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// The fleet is a set of actors exchanging messages over a shard.Group:
// actor 0 is the router (always on shard 0), actor i+1 is replica i (on
// shard i % Shards). Actors never touch each other's memory — every
// interaction, request ledger writes included, is a message delayed by
// netDelay. That delay is the group's conservative lookahead, which is
// what keeps the output identical at any shard count.

// mkind enumerates the fleet's cross-shard message types.
type mkind uint8

const (
	// router → replica
	mSubmit   mkind = iota // w: the request to run
	mAbort                 // id: finalize as aborted and scrub
	mEvict                 // id, seq: remove without finalizing (failover)
	mCrash                 // whole-replica crash
	mRestore               // bring a crashed replica back
	mSlowdown              // f: compute slowdown factor
	mDegrade               // f: link bandwidth fraction
	mFlip                  // a=1: flip an acting prefill to decode; a=0 the reverse

	// replica → router
	mEvictReply   // id, seq, ok, lost, gen: eviction outcome
	mOrphan       // id, lost, gen: request orphaned by a crash
	mFlipDone     // ok, a=streams migrating, b=prefills requeued: flip outcome
	mLoad         // a=queue depth, b=in-flight, ld=elastic signals: delta-suppressed load report
	mPrefillStart // id, t: ledger forward
	mFirstToken   // id, t: ledger forward
	mDecodeStart  // id, t: ledger forward
	mComplete     // id, t: ledger forward
	mAbortRec     // id, t, a=emitted tokens: ledger forward
)

// msg is the one wire format every fleet actor speaks. Field meaning is
// per-kind (see the mkind constants); unused fields stay zero.
type msg struct {
	kind mkind
	to   int // destination actor: 0 = router, i+1 = replica i
	id   uint64
	a    int // lost tokens / queue depth / emitted tokens
	b    int // generated tokens / in-flight count
	seq  int // evict token, echoed in the reply
	ok   bool
	f    float64
	t    sim.Time // the true event time a ledger forward carries
	w    workload.Request
	ld   loadInfo // elastic pressure signals riding mLoad (zero unless elastic)
}

// loadInfo is the per-replica elastic pressure snapshot carried by mLoad.
// Populated only when the fleet runs elastic; otherwise every field stays
// zero and the wire format is byte-identical to the static fleet's.
type loadInfo struct {
	qTok   int // prompt-token backlog across acting prefills
	run    int // streams running across acting decodes
	sumCtx int // total context tokens across those streams
	actP   int // instances currently acting as prefill
	actD   int // instances currently acting as decode
}

// replicaActor runs one serve.Replica on its shard and speaks msg to the
// router: executes submits/aborts/evicts/faults, forwards every ledger
// write with its true timestamp, and self-reports load on a delta-
// suppressed timer (the router routes on this delayed view instead of
// reading replica state synchronously).
type replicaActor struct {
	f   *fleet
	idx int
	sh  *shard.Shard[msg]
	rp  *serve.Replica

	lastQ, lastIn int
	lastSig       loadInfo
	reporting     bool
	reportFn      func()
}

// send posts a message to the router.
func (ra *replicaActor) send(m msg) {
	m.to = 0
	ra.sh.Send(0, ra.idx+1, netDelay, m)
}

func (ra *replicaActor) handle(m msg) {
	switch m.kind {
	case mSubmit:
		ra.rp.Submit(m.w)
		ra.kickReports()
	case mAbort:
		ra.rp.Abort(m.id)
	case mEvict:
		q := ra.rp.Evict(m.id)
		if q == nil {
			ra.send(msg{kind: mEvictReply, id: m.id, seq: m.seq})
			return
		}
		ra.send(msg{kind: mEvictReply, id: m.id, seq: m.seq, ok: true,
			a: q.PrefillDone + q.Generated(), b: q.Generated()})
	case mCrash:
		for _, q := range ra.rp.Crash() { // orphans in ID order
			ra.send(msg{kind: mOrphan, id: q.W.ID,
				a: q.PrefillDone + q.Generated(), b: q.Generated()})
		}
	case mRestore:
		ra.rp.Restore()
	case mSlowdown:
		ra.rp.SetSlowdown(m.f)
	case mDegrade:
		ra.rp.DegradeLinks(m.f)
	case mFlip:
		res := ra.rp.Flip(m.a == 1)
		ra.send(msg{kind: mFlipDone, ok: res.OK, a: res.Migrating, b: res.Requeued})
		// A flip reshapes the load signals immediately; make sure the
		// report chain is running to carry the new shape to the router.
		ra.kickReports()
	}
}

// kickReports (re)starts the load-report chain. The chain runs only while
// the replica is busy and parks itself when idle, so a drained fleet has
// no self-rescheduling events left and the shard group can terminate.
func (ra *replicaActor) kickReports() {
	if ra.reporting {
		return
	}
	ra.reporting = true
	ra.sh.Sim().Schedule(loadReportEvery, ra.reportFn)
}

func (ra *replicaActor) report() {
	q, in := ra.rp.QueueDepth(), ra.rp.InFlight()
	var sig loadInfo
	if ra.f.cfg.Elastic.Enabled {
		sig.qTok, sig.run, sig.sumCtx, sig.actP, sig.actD = ra.rp.LoadSignals()
	}
	if q != ra.lastQ || in != ra.lastIn || sig != ra.lastSig {
		ra.lastQ, ra.lastIn, ra.lastSig = q, in, sig
		ra.send(msg{kind: mLoad, a: q, b: in, ld: sig})
	}
	if q == 0 && in == 0 {
		ra.reporting = false // idle: park; the next Submit restarts it
		return
	}
	ra.sh.Sim().Schedule(loadReportEvery, ra.reportFn)
}

// replicaLedger satisfies serve.Ledger by forwarding each lifecycle write —
// with its explicit event time — to the router, which owns the only real
// metrics.Recorder and the front door (admission, shedding, cancellation).
type replicaLedger struct {
	ra *replicaActor
}

func (l replicaLedger) PrefillStart(id uint64, at sim.Time) {
	l.ra.send(msg{kind: mPrefillStart, id: id, t: at})
}
func (l replicaLedger) FirstToken(id uint64, at sim.Time) {
	l.ra.send(msg{kind: mFirstToken, id: id, t: at})
}
func (l replicaLedger) DecodeStart(id uint64, at sim.Time) {
	l.ra.send(msg{kind: mDecodeStart, id: id, t: at})
}
func (l replicaLedger) Complete(id uint64, at sim.Time) {
	l.ra.send(msg{kind: mComplete, id: id, t: at})
}
func (l replicaLedger) Abort(id uint64, at sim.Time, emitted int) {
	l.ra.send(msg{kind: mAbortRec, id: id, t: at, a: emitted})
}

// replicaHandle is the router's delayed view of one replica: the last
// self-reported load, plus a bump counter for requests routed since that
// report (so back-to-back routing decisions inside one report interval
// don't dogpile the momentarily-emptiest replica). Policies read load
// through the same QueueDepth/InFlight surface the live replica used to
// expose — the numbers are now netDelay-stale by construction.
type replicaHandle struct {
	name     string
	q        int // last reported queue depth
	inflight int // last reported in-flight count
	bump     int // routed since last report
	// sig is the last reported elastic pressure snapshot (zero until the
	// replica's first elastic report; always zero in a static fleet).
	sig loadInfo
}

func (h *replicaHandle) Name() string    { return h.name }
func (h *replicaHandle) QueueDepth() int { return h.q + h.bump }
func (h *replicaHandle) InFlight() int   { return h.inflight }
