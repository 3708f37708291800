package fleet

// The role controller is the fleet's elastic brain: it watches each
// replica's self-reported pressure signals (the same netDelay-stale view
// the routing policies read) and flips instances between prefill and
// decode roles when one phase is predicted to miss its SLO while the
// other has headroom. Decisions happen on the router actor; execution is
// an mFlip message to the replica, whose serve-layer drain/migrate
// protocol (serve/elastic.go) does the actual work. Hysteresis lives in
// elastic.Policy.Decide, overload deferral in the shared brown-out
// helpers, and a per-replica cooldown keeps the fleet from thrashing.

import (
	"fmt"

	"windserve/internal/elastic"
	"windserve/internal/sched"
	"windserve/internal/sim"
)

// roleController runs on the router shard. One tick chain (the same
// kick/park pattern as replica load reports) evaluates every replica;
// per-replica cooldown and pending-flip state serialize flips so a
// replica never sees a second mFlip while draining the first.
type roleController struct {
	f   *fleet
	pol elastic.Policy

	// profP/profD predict prefill latency and decode iteration time for
	// the replicas' instance shapes (identical across replicas).
	profP, profD *sched.Profiler
	mdb          int // per-instance decode batch cap (occupancy denominator)

	pendingFlip []bool     // an mFlip is in flight toward this replica
	nextFlipAt  []sim.Time // cooldown gate, per replica

	ticking bool
	tickFn  func()

	flips    int // executed flips (FlipResult.OK)
	migrated int // decode streams migrated by flips
	requeued int // queued prefills re-routed by flips
}

func newRoleController(f *fleet) (*roleController, error) {
	pcm, dcm := f.acts[0].rp.CostModels()
	profP, err := sched.Profile(pcm)
	if err != nil {
		return nil, fmt.Errorf("fleet: profiling prefill shape: %w", err)
	}
	profD, err := sched.Profile(dcm)
	if err != nil {
		return nil, fmt.Errorf("fleet: profiling decode shape: %w", err)
	}
	mdb := f.cfg.Replica.MaxDecodeBatch
	if mdb <= 0 {
		mdb = 256 // serve's fillDefaults value
	}
	rc := &roleController{
		f: f, pol: f.cfg.Elastic,
		profP: profP, profD: profD, mdb: mdb,
		pendingFlip: make([]bool, f.cfg.NumReplicas),
		nextFlipAt:  make([]sim.Time, f.cfg.NumReplicas),
	}
	rc.tickFn = rc.tick
	return rc, nil
}

// kick (re)starts the tick chain; called on every admission. Nil-safe so
// the static fleet's admit path stays branch-free.
func (rc *roleController) kick() {
	if rc == nil || rc.ticking {
		return
	}
	rc.ticking = true
	rc.f.s.Schedule(rc.pol.Every, rc.tickFn)
}

// tick evaluates every replica once, then re-arms — or parks when the
// fleet has drained, so the shard group can terminate.
func (rc *roleController) tick() {
	f := rc.f
	if len(f.state) == 0 && len(f.parked) == 0 {
		rc.ticking = false // idle: park; the next admission restarts it
		return
	}
	f.updateBrownout()
	if !f.brownout {
		// A browned-out fleet defers flips the way it defers failovers:
		// draining and re-prefilling work mid-overload only deepens it.
		for i := range f.replicas {
			rc.consider(i)
		}
	}
	f.s.Schedule(rc.pol.Every, rc.tickFn)
}

// consider evaluates one replica and sends at most one mFlip.
func (rc *roleController) consider(i int) {
	f := rc.f
	if f.down[i] || f.partitioned[i] || rc.pendingFlip[i] || f.s.Now() < rc.nextFlipAt[i] {
		return
	}
	sig := f.replicas[i].sig
	if sig.actP <= 0 || sig.actD <= 0 {
		return // no elastic report yet (or a role drained to zero mid-crash)
	}
	pp, dp := rc.pressures(sig)
	dir := rc.pol.Decide(pp, dp, sig.actP, sig.actD)
	if dir == elastic.None {
		return
	}
	f.dec.AddRoute(f.s.Now(), 0, f.replicas[i].Name(),
		fmt.Sprintf("flip-%s pp=%.2f dp=%.2f", dir, pp, dp))
	rc.pendingFlip[i] = true
	a := 0
	if dir == elastic.ToDecode {
		a = 1
	}
	f.sendTo(i, msg{kind: mFlip, a: a})
}

// pressures converts a replica's load signals into dimensionless SLO
// pressures: predicted TTFT of the per-instance prompt backlog over the
// TTFT SLO, and the larger of decode batch occupancy and predicted
// iteration time over the TPOT SLO. A pressure of 1.0 means the phase is
// right at its SLO with zero slack.
func (rc *roleController) pressures(sig loadInfo) (prefill, decode float64) {
	slo := rc.f.cfg.Replica.SLO
	prefill = sloRatio(rc.profP.PredictPrefill(sig.qTok/sig.actP), slo.TTFT)
	decode = float64(sig.run) / float64(sig.actD*rc.mdb)
	if r := sloRatio(rc.profD.PredictDecode(sig.sumCtx/sig.actD), slo.TPOT); r > decode {
		decode = r
	}
	return prefill, decode
}

// sloRatio is predicted/slo with a zero SLO reading as "no pressure" —
// an unset SLO must not divide by zero or pin the controller one way.
func sloRatio(pred, slo sim.Duration) float64 {
	if slo <= 0 {
		return 0
	}
	return pred.Seconds() / slo.Seconds()
}

// flipDone resolves one flip: the replica finished (or refused) the role
// change. The cooldown arms either way — a refused flip means the floor
// or health stopped it, and re-asking every tick would spam the wire.
func (rc *roleController) flipDone(idx int, m msg) {
	if rc == nil {
		return
	}
	rc.pendingFlip[idx] = false
	rc.nextFlipAt[idx] = rc.f.s.Now().Add(rc.pol.Cooldown)
	if m.ok {
		rc.flips++
		rc.migrated += m.a
		rc.requeued += m.b
	}
}
