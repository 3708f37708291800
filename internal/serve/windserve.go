package serve

import (
	"fmt"

	"windserve/internal/engine"
	"windserve/internal/perf"
	"windserve/internal/sched"
	"windserve/internal/sim"
	"windserve/internal/trace"
	"windserve/internal/workload"
)

// RunWindServe simulates the paper's system: phase disaggregation plus
//
//   - a Global Scheduler whose Profiler predicts iteration times from
//     offline regression (eqs. 1–2) and whose Coordinator runs Dynamic
//     Prefill Dispatch (Algorithm 1) on every arrival and Dynamic
//     Rescheduling on decode KV pressure;
//   - asynchronous KV transfer overlapped with prefill computation;
//   - stall-free rescheduling — migrating decode jobs keep decoding while
//     their KV copies, pausing only for a bounded final tail;
//   - proactive KV backups of long-context requests in prefill instances'
//     spare memory, shrinking later migrations to a delta;
//   - stream-based disaggregation in decode instances, running dispatched
//     prefills in a second stream.
//
// With multiple instances the Global Scheduler also load-balances:
// arrivals go to the least-loaded prefill instance, transfers and
// dispatches target the decode instance with the most free KV, and
// migrations pick the prefill instance with the most spare blocks.
// The ablations of §5.4 are flags in Config.Wind.
func RunWindServe(cfg Config, reqs []workload.Request) (*Result, error) {
	return RunWindServeFrom(cfg, workload.NewSliceSource(reqs))
}

// RunWindServeFrom is RunWindServe fed from a pull-based request source.
// It builds every prefill/decode system: Config.Wind picks the mechanism
// set, and with all five off the system is DistServe.
func RunWindServeFrom(cfg Config, src workload.Source) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	system := systemName(r.cfg.Wind)
	d, err := newPD(r, "", false)
	if err != nil {
		return nil, fmt.Errorf("serve: planning %s: %w", system, err)
	}
	if err := installPDFaults(r, d); err != nil {
		return nil, err
	}
	r.scheduleStream(src, d.submit)
	res, err := r.run(system)
	if err != nil {
		return nil, err
	}
	d.finalize(res)
	return res, nil
}

// systemName names a mechanism set: the paper's system, one of its
// ablations, or DistServe when every mechanism is off.
func systemName(o WindOptions) string {
	switch {
	case o.DisableSBD && o.DisableResched && o.DisableDispatch && o.DisableAsyncTransfer && o.DisableBackup:
		return "DistServe"
	case o.DisableSBD:
		return "WindServe-no-split"
	case o.DisableResched:
		return "WindServe-no-resche"
	case o.DisableDispatch:
		return "WindServe-no-dispatch"
	case o.DisableAsyncTransfer:
		return "WindServe-no-async"
	default:
		return "WindServe"
	}
}

// startScheduler builds the Global Scheduler: a Profiler fitted to the
// prefill cost model and warm-started at nominal link bandwidth, and a
// Coordinator whose assist budget is sized against a reference decode
// batch of 16 requests at half the model's context.
func (d *pd) startScheduler() error {
	prof, err := sched.Profile(d.prefills[0].CM())
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	cfg := d.cfg
	ref := perf.DecodeOnly(16, 16*cfg.Model.MaxContext/2)
	dkv := d.decodes[0].KV()
	d.coord = &sched.Coordinator{
		Prof:           prof,
		Thrd:           sim.Duration(cfg.Wind.ThresholdFrac * cfg.SLO.TTFT.Seconds()),
		BudgetTokens:   sched.AssistBudget(d.decodes[0].CM(), ref, cfg.SLO.TPOT),
		KVSafetyTokens: int(kvSafetyFrac * float64(dkv.TotalBlocks()*dkv.BlockSize())),
	}
	prof.WarmStartTransfer(d.nominalP2DRate())
	return nil
}

// leastLoadedPrefillIdx is the dispatch-view prefill target (down
// instances skipped; with everything down, requests park on instance 0
// until a restore).
func (d *pd) leastLoadedPrefillIdx() int {
	best := -1
	for i := 0; i < len(d.prefills); i++ {
		if d.prefills[i].Down() {
			continue
		}
		if best < 0 || d.prefills[i].QueuedPrefillTokens() < d.prefills[best].QueuedPrefillTokens() {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// freestPrefillIdx is the migration/backup target: the live prefill
// instance with the most free KV tokens, or -1 when all are down.
func (d *pd) freestPrefillIdx() int {
	best := -1
	for i := 0; i < len(d.prefills); i++ {
		if d.prefills[i].Down() {
			continue
		}
		if best < 0 || d.prefills[i].FreeKVTokens() > d.prefills[best].FreeKVTokens() {
			best = i
		}
	}
	return best
}

// submit routes an arrival, or an orphan re-prefilling from scratch:
// through Dynamic Prefill Dispatch (Algorithm 1) to the least-loaded
// prefill instance or to a decode instance's second stream, or
// round-robin with dispatch off.
func (d *pd) submit(q *engine.Req) {
	if d.coord == nil {
		d.prefillRR(q)
		return
	}
	pi := d.leastLoadedPrefillIdx()
	if dj := d.pickDecode(); dj >= 0 {
		dec := d.decodes[dj]
		in := sched.DispatchInput{
			NewPromptTokens:      q.W.PromptTokens,
			QueuedPrefillTokens:  d.prefills[pi].QueuedPrefillTokens(),
			PrefillBusyRemaining: d.prefills[pi].BusyRemaining(),
			DecodeFreeKVTokens:   dec.FreeKVTokens(),
			AssistInFlightTokens: dec.AssistPendingTokens() + dec.QueuedPrefillTokens(),
			TransferBytes:        d.kvBytes(q.W.PromptTokens),
			CachedTokens:         d.prefills[pi].KV().PeekPrefix(q.W.PrefixGroup, q.W.PrefixTokens),
		}
		decision := d.coord.DecideDispatch(in)
		toDecode := decision.ToDecode && dec.AllocatePrefillKV(q)
		target := d.prefills[pi].Name()
		if toDecode {
			target = dec.Name()
		}
		d.logDispatch(q, in, decision, dec, target, toDecode)
		if toDecode {
			d.dispatched++
			fl(q).di = dj
			now := d.r.s.Now()
			if d.cfg.Tracer != nil {
				d.cfg.Tracer.Add("scheduler", trace.KindDispatch, now, now,
					fmt.Sprintf("req%d→decode-%d pred=%v", q.W.ID, dj, decision.PredictedTTFT))
			}
			dec.EnqueueAssist(q)
			return
		}
	} else {
		d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, d.prefills[pi].Name(), "least-loaded")
	}
	fl(q).pi = pi
	d.prefills[pi].EnqueuePrefill(q)
}

// logDispatch records one Algorithm 1 decision with the full candidate
// set: every live prefill instance (compute + transfer terms) and the
// decode instance the assist would land on (compute only — its prefill
// needs no KV copy). No-op without a decision log.
func (d *pd) logDispatch(q *engine.Req, in sched.DispatchInput,
	decision sched.DispatchDecision, dec *engine.Instance, target string, toDecode bool) {
	log := d.cfg.Decisions
	if log == nil {
		return
	}
	rec := &sched.DispatchRecord{
		Time:           d.r.s.Now(),
		ReqID:          q.W.ID,
		PromptTokens:   q.W.PromptTokens,
		CachedTokens:   in.CachedTokens,
		Threshold:      d.coord.Thrd,
		BudgetTokens:   d.coord.BudgetTokens,
		AssistInFlight: in.AssistInFlightTokens,
		Slots:          decision.Slots,
		Target:         target,
		ToDecode:       toDecode,
	}
	tx := d.coord.Prof.PredictTransfer(in.TransferBytes)
	for _, p := range d.prefills {
		if p.Down() {
			continue
		}
		queued := p.QueuedPrefillTokens()
		comp := d.coord.Prof.PredictPrefill(queued+q.W.PromptTokens) + p.BusyRemaining()
		rec.Candidates = append(rec.Candidates, sched.DispatchCandidate{
			Instance:      p.Name(),
			QueuedTokens:  queued,
			ComputeTTFT:   comp,
			TransferTTFT:  tx,
			PredictedTTFT: comp + tx,
		})
	}
	dcomp := d.coord.Prof.PredictPrefill(in.AssistInFlightTokens + q.W.PromptTokens)
	rec.Candidates = append(rec.Candidates, sched.DispatchCandidate{
		Instance:      dec.Name(),
		QueuedTokens:  in.AssistInFlightTokens,
		ComputeTTFT:   dcomp,
		PredictedTTFT: dcomp,
	})
	log.AddDispatch(rec)
}

// asyncXfer tracks a transfer overlapped with prefill: the request may
// only start decoding when both the prefill and the copy have finished.
// Its destination is the flight's decode index. stamp tells the copy's
// completion whether it still serves this transfer: after crash recovery
// the request may have a newer one. Stamps start at 1; the zero value is
// no transfer.
type asyncXfer struct {
	xferDone    bool
	prefillDone bool
	stamp       uint64
}

// maybeStartAsyncTransfer begins streaming a request's KV to a decode
// instance as its prefill starts (layer-by-layer in the real system; here
// the copy and the compute occupy their resources concurrently and the
// request proceeds at whichever finishes last).
func (d *pd) maybeStartAsyncTransfer(q *engine.Req) {
	if d.cfg.Wind.DisableAsyncTransfer || q.Assist {
		return
	}
	dj := d.pickDecode()
	if dj < 0 {
		return // every decode instance is down; serial path retries later
	}
	if d.decodes[dj].AllocateKV(q, q.W.PromptTokens+1) != nil {
		return // no decode blocks: fall back to the serial path at prefill end
	}
	d.asyncSeq++
	f := fl(q)
	f.async, f.di = asyncXfer{stamp: d.asyncSeq}, dj
	d.asyncXfers++
	pi := f.pi
	d.startCopy(kvCopy{q: q, i: pi, j: dj, stamp: d.asyncSeq,
		bytes: d.kvBytes(q.W.PromptTokens), lk: d.pdLink(pi, dj), then: d.asyncDone})
}

// finishAsyncCopy lands an async copy.
func (d *pd) finishAsyncCopy(c kvCopy) {
	q := c.q
	d.observeTransfer(c.bytes, c.start)
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Add("link "+c.lk.Name(), trace.KindKVTransfer, c.start, d.r.s.Now(),
			fmt.Sprintf("req%d async %d tokens", q.W.ID, q.W.PromptTokens))
	}
	f := fl(q)
	if f.async.stamp != c.stamp {
		return // superseded: crash recovery already re-routed the request
	}
	f.async.xferDone = true
	d.maybeFinishAsync(q)
}

// maybeFinishAsync hands the request to its decode instance once both
// halves of its async transfer are done.
func (d *pd) maybeFinishAsync(q *engine.Req) {
	f := fl(q)
	if !f.async.xferDone || !f.async.prefillDone {
		return
	}
	f.async = asyncXfer{}
	dec := d.decodes[f.di]
	if q.Phase == engine.PhaseAborted {
		d.prefills[f.pi].ReleaseKV(q)
		d.releaseAt(dec, q)
		return
	}
	if dec.Down() || dec.KVOf(q) == nil {
		// The destination crashed under the copy (its allocation is gone).
		// The prefilled KV still exists at the source — keep it and
		// serial-transfer to a survivor instead of recomputing.
		f.di = noIdx
		d.serialTransfer(q)
		return
	}
	d.prefills[f.pi].ReleaseKV(q)
	dec.AdmitDecode(q)
}

// onDecodeIterEnd runs the Global Scheduler's memory-pressure logic after
// every pass of decode instance j: Dynamic Rescheduling on low watermark,
// proactive backups when the imbalance favors them.
func (d *pd) onDecodeIterEnd(j int) {
	if d.cfg.Wind.DisableResched && d.cfg.Wind.DisableBackup {
		return
	}
	dec := d.decodes[j]
	dkv := dec.KV()
	freeFrac := 1 - dkv.Utilization()
	if !d.cfg.Wind.DisableResched {
		pol := d.cfg.Wind.Resched
		if pol.ShouldTrigger(freeFrac) && len(d.migs) < pol.MaxConcurrentMigrations {
			capTokens := dkv.TotalBlocks() * dkv.BlockSize()
			need := int((pol.TargetFree - freeFrac) * float64(capTokens))
			victims := pol.PickVictims(dec.Running(), need, pol.MaxConcurrentMigrations-len(d.migs))
			for _, v := range victims {
				d.startMigration(v, j, freeFrac)
			}
		}
	}
	if !d.cfg.Wind.DisableBackup {
		d.maybeBackup(j, freeFrac)
	}
}

// --- Stall-free rescheduling (paper §3.3) ------------------------------

// startMigration begins moving a long-context decode job from decode
// instance src to a prefill instance without stopping its decoding (the
// protocol is in migration.go). The destination is the prefill holding
// the job's backup, which leaves only the delta to copy, else the one
// with the most free KV. freeFrac is the source's free-KV fraction at
// trigger time (logged).
func (d *pd) startMigration(q *engine.Req, src int, freeFrac float64) {
	clean := 0
	dst := d.freestPrefillIdx()
	f := fl(q)
	if bi := f.backupAt; bi != noIdx && q.BackupTokens > 0 {
		if b := d.prefills[bi].KVOf(q); b.IsBackup() && b.Promote() == nil {
			// A backup already holds the first BackupTokens of context at
			// instance bi; only the delta must move there.
			dst = bi
			clean = q.BackupTokens
			f.backupAt = noIdx
		}
	}
	if clean == 0 {
		if dst < 0 {
			return // every prefill instance is down; nowhere to migrate
		}
		if d.prefills[dst].AllocateKV(q, q.Ctx()+1) != nil {
			return // prefill memory too tight; try again on a later trigger
		}
	}
	d.rescheduled++
	now := d.r.s.Now()
	rec := d.cfg.Decisions.AddReschedule(&sched.RescheduleRecord{
		Time:         now,
		ReqID:        q.W.ID,
		Trigger:      "low-watermark",
		FreeFrac:     freeFrac,
		Src:          d.decodes[src].Name(),
		Dst:          d.prefills[dst].Name(),
		CtxTokens:    q.Ctx(),
		BackupTokens: clean,
	})
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Add("scheduler", trace.KindReschedule, now, now,
			fmt.Sprintf("req%d d%d→p%d ctx=%d backup=%d", q.W.ID, src, dst, q.Ctx(), clean))
	}
	d.migrate(&migration{q: q, src: d.dPhys(src), dst: dst, clean: clean, rec: rec}, true)
}

// --- Proactive KV backups (paper §3.3) ---------------------------------

// maybeBackup copies a long request's KV from decode instance j to a
// prefill instance's spare blocks when the decode side is filling and the
// prefill side is not: a later migration then only moves the delta.
func (d *pd) maybeBackup(j int, decodeFreeFrac float64) {
	pi := d.freestPrefillIdx()
	if pi < 0 {
		return // no live prefill instance to hold a backup
	}
	if d.dpLink(j, pi).Busy() {
		return // keep backups off the critical path of migrations
	}
	pkv := d.prefills[pi].KV()
	prefillFree := 1 - pkv.Utilization()
	if !sched.ShouldBackup(decodeFreeFrac, prefillFree) {
		return
	}
	cand := sched.PickBackupCandidate(d.decodes[j].Running())
	if cand == nil {
		return
	}
	snap := cand.Ctx()
	if _, err := pkv.AllocateBackup(&cand.Holder, cand.KVID(), snap); err != nil {
		return
	}
	cand.BackupInFlight = true
	d.startCopy(kvCopy{q: cand, i: pi, j: j, tokens: snap,
		bytes: d.kvBytes(snap), lk: d.dpLink(j, pi), then: d.backupDone})
}

// finishBackup lands a backup copy.
func (d *pd) finishBackup(c kvCopy) {
	cand, pi, snap := c.q, c.i, c.tokens
	cand.BackupInFlight = false
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Add("link "+c.lk.Name(), trace.KindKVTransfer, c.start, d.r.s.Now(),
			fmt.Sprintf("req%d backup %d tokens", cand.W.ID, snap))
	}
	if cand.Phase == engine.PhaseDone || cand.Phase == engine.PhaseAborted ||
		!d.prefills[pi].KVOf(cand).IsBackup() {
		return // finished, cancelled, or promoted while copying
	}
	cand.BackupTokens = snap
	fl(cand).backupAt = pi
	d.backups++
}

// --- Failure recovery (fault injection) --------------------------------
//
// The fault model and its invariants are documented in DESIGN.md. The
// short version: a crash loses an instance's KV and in-flight work;
// payloads already on a link are "captured" and complete; orphans restore
// from a KV backup when one survives, and re-prefill from scratch (losing
// generated-token KV, hence re-decoding) otherwise. Recovery visits
// orphans in a fixed order, so the whole simulation is deterministic.

// crash takes physical instance k down, drops the migrations that touch
// it, and recovers its live orphans: the requests queued, running or
// swapped there, the prefilled ones waiting in transferPending on KV that
// died with it (pulled out of the queue), and the paused migrations it
// was the source of. A prefill crash re-prefills its orphans, and the
// backups held there evaporate. A decode crash drops async transfers into
// it back to the serial path and sends every orphan through
// backup-or-scratch recovery; with no backups that too re-prefills.
func (d *pd) crash(k int) {
	orphans := d.ins[k].Crash()
	keep := d.transferPending[:0]
	for _, q := range d.transferPending {
		if fl(q).pi == k {
			orphans = append(orphans, q)
		} else {
			keep = append(keep, q)
		}
	}
	d.transferPending = keep
	orphans = liveOrphans(append(orphans, d.dropMigrations(k)...))
	// The walks of runner.live below may go in any order: each step only
	// clears fields of the request it visits. Every landed backup and
	// async transfer belongs to a live request.
	if k < len(d.prefills) {
		for _, q := range d.r.live {
			if f := fl(q); f.backupAt == k {
				f.backupAt = noIdx
				q.BackupTokens = 0
			}
		}
		for _, q := range orphans {
			d.rePrefill(q)
		}
		return
	}
	j := k - len(d.prefills)
	for _, q := range d.r.live {
		// A request still prefilling at the source drops its dead
		// transfer, so prefill completion takes the serial path to a
		// survivor; the stale copy's completion no-ops (no transfer, or a
		// newer stamp). With prefillDone set the request waits only on the
		// copy, whose callback's Down/Has guard re-routes it.
		if f := fl(q); f.async.stamp != 0 && f.di == j && !f.async.prefillDone {
			f.async, f.di = asyncXfer{}, noIdx
		}
	}
	for _, q := range orphans {
		d.recoverDecodeOrphan(q)
	}
}

// recoverDecodeOrphan re-homes a request whose decode-side KV vanished.
// If a live prefill instance still holds a proactive backup, the backup
// promotes to a working copy and decoding resumes there, rolled back to
// the snapshot (tokens generated after the backup lost their KV with the
// crash and are re-decoded). Otherwise the request re-prefills from
// scratch.
func (d *pd) recoverDecodeOrphan(q *engine.Req) {
	f := fl(q)
	f.async, f.di = asyncXfer{}, noIdx
	q.BackupInFlight = false
	if bi := f.backupAt; bi != noIdx && q.BackupTokens > 0 && !d.prefills[bi].Down() {
		if b := d.prefills[bi].KVOf(q); b.IsBackup() && b.Promote() == nil {
			f.backupAt = noIdx
			// Drop any other allocation the request holds (a stale async
			// copy) — everything but the promoted backup.
			for k, ins := range d.ins {
				if k != bi {
					d.releaseAt(ins, q)
				}
			}
			snap := q.BackupTokens
			q.BackupTokens = 0
			if gen := snap - q.W.PromptTokens; gen >= 1 && gen < q.Generated() {
				q.SetGenerated(gen)
			}
			f.pi = bi
			d.r.markRecovered(q)
			d.prefills[bi].InsertRunning(q)
			return
		}
	}
	d.rePrefill(q)
}

// rePrefill is scratch recovery for KV lost to a crash: release
// everything the request holds anywhere, forget its placement and
// progress, and route it back in as a fresh prefill.
func (d *pd) rePrefill(q *engine.Req) {
	d.forget(q)
	d.r.restart(q, d.submit)
}

// Ablation helpers so benchmarks read naturally.

// RunWindServeNoSplit runs the WindServe-no-split ablation (Fig. 13a).
func RunWindServeNoSplit(cfg Config, reqs []workload.Request) (*Result, error) {
	cfg.Wind.DisableSBD = true
	return RunWindServe(cfg, reqs)
}

// RunWindServeNoResched runs the WindServe-no-resche ablation (Fig. 13b).
func RunWindServeNoResched(cfg Config, reqs []workload.Request) (*Result, error) {
	cfg.Wind.DisableResched = true
	return RunWindServe(cfg, reqs)
}
