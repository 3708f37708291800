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
func RunWindServeFrom(cfg Config, src workload.Source) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	cfg = r.cfg

	w := newWindState(r)
	d, err := newPD(r, cfg, pdHooks{
		onPrefillStart:     w.maybeStartAsyncTransfer,
		transfer:           w.finishPrefillTransfer,
		onDecodeIterEnd:    w.onDecodeIterEnd,
		onComplete:         w.onComplete,
		onTransfer:         w.observeTransfer,
		crash:              w.crash,
		decodeSBD:          !cfg.Wind.DisableSBD,
		decodeAllowPrefill: cfg.Wind.DisableSBD,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: planning WindServe: %w", err)
	}
	w.d = d
	r.queueDepth = d.queueDepth
	r.onAbort = w.abort
	if err := installPDFaults(r, d); err != nil {
		return nil, err
	}

	prof, err := sched.Profile(d.prefills[0].CM())
	if err != nil {
		return nil, fmt.Errorf("serve: profiling: %w", err)
	}
	// The assist budget is sized against a reference decode batch of 16
	// requests at half the model's context.
	ref := perf.DecodeOnly(16, 16*cfg.Model.MaxContext/2)
	budget := sched.AssistBudget(d.decodes[0].CM(), ref, cfg.SLO.TPOT)
	dkv := d.decodes[0].KV()
	w.coord = &sched.Coordinator{
		Prof:           prof,
		Thrd:           sim.Duration(cfg.Wind.ThresholdFrac * cfg.SLO.TTFT.Seconds()),
		BudgetTokens:   budget,
		KVSafetyTokens: int(kvSafetyFrac * float64(dkv.TotalBlocks()*dkv.BlockSize())),
	}
	prof.WarmStartTransfer(d.nominalP2DRate())

	r.scheduleStream(src, w.submit)
	res, err := r.run(w.systemName())
	if err != nil {
		return nil, err
	}
	d.finalize(res)
	res.Dispatched = w.dispatched
	res.Rescheduled = w.rescheduled
	res.Backups = w.backups
	res.TransferRateBps = prof.TransferRate()
	return res, nil
}

type windState struct {
	r     *runner
	cfg   Config
	d     *pd
	coord *sched.Coordinator

	async          map[uint64]asyncXfer
	asyncSeq       uint64 // stamps asyncXfers
	backupInFlight map[uint64]bool
	backupAt       map[uint64]int // request → prefill instance holding its backup

	// asyncDone and backupDone are w.finishAsyncCopy and w.finishBackup,
	// bound once.
	asyncDone, backupDone func(kvCopy)

	dispatched  int
	rescheduled int
	backups     int
}

// newWindState is a windState on r with its maps made and no cluster.
func newWindState(r *runner) *windState {
	w := &windState{
		r: r, cfg: r.cfg,
		async:          make(map[uint64]asyncXfer),
		backupInFlight: make(map[uint64]bool),
		backupAt:       make(map[uint64]int),
	}
	w.asyncDone, w.backupDone = w.finishAsyncCopy, w.finishBackup
	return w
}

func (w *windState) systemName() string {
	switch {
	case w.cfg.Wind.DisableSBD:
		return "WindServe-no-split"
	case w.cfg.Wind.DisableResched:
		return "WindServe-no-resche"
	case w.cfg.Wind.DisableDispatch:
		return "WindServe-no-dispatch"
	case w.cfg.Wind.DisableAsyncTransfer:
		return "WindServe-no-async"
	default:
		return "WindServe"
	}
}

// leastLoadedPrefillIdx is the dispatch-view prefill target (down
// instances skipped; with everything down, requests park on instance 0
// until a restore).
func (w *windState) leastLoadedPrefillIdx() int {
	best := -1
	for i := 0; i < len(w.d.prefills); i++ {
		if w.d.prefills[i].Down() {
			continue
		}
		if best < 0 || w.d.prefills[i].QueuedPrefillTokens() < w.d.prefills[best].QueuedPrefillTokens() {
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
func (w *windState) freestPrefillIdx() int {
	best := -1
	for i := 0; i < len(w.d.prefills); i++ {
		if w.d.prefills[i].Down() {
			continue
		}
		if best < 0 || w.d.prefills[i].FreeKVTokens() > w.d.prefills[best].FreeKVTokens() {
			best = i
		}
	}
	return best
}

// submit routes an arrival through Dynamic Prefill Dispatch (Algorithm 1).
func (w *windState) submit(q *engine.Req) {
	pi := w.leastLoadedPrefillIdx()
	if dj := w.d.pickDecode(); !w.cfg.Wind.DisableDispatch && dj >= 0 {
		dec := w.d.decodes[dj]
		in := sched.DispatchInput{
			NewPromptTokens:      q.W.PromptTokens,
			QueuedPrefillTokens:  w.d.prefills[pi].QueuedPrefillTokens(),
			PrefillBusyRemaining: w.d.prefills[pi].BusyRemaining(),
			DecodeFreeKVTokens:   dec.FreeKVTokens(),
			AssistInFlightTokens: dec.AssistPendingTokens() + dec.QueuedPrefillTokens(),
			TransferBytes:        w.d.kvBytes(q.W.PromptTokens),
			CachedTokens:         w.d.prefills[pi].KV().PeekPrefix(q.W.PrefixGroup, q.W.PrefixTokens),
		}
		decision := w.coord.DecideDispatch(in)
		toDecode := decision.ToDecode && dec.AllocatePrefillKV(q)
		target := w.d.prefills[pi].Name()
		if toDecode {
			target = dec.Name()
		}
		w.logDispatch(q, in, decision, dec, target, toDecode)
		if toDecode {
			w.dispatched++
			w.d.decodeAt[q.W.ID] = dj
			now := w.r.s.Now()
			if w.cfg.Tracer != nil {
				w.cfg.Tracer.Add("scheduler", trace.KindDispatch, now, now,
					fmt.Sprintf("req%d→decode-%d pred=%v", q.W.ID, dj, decision.PredictedTTFT))
			}
			dec.EnqueueAssist(q)
			return
		}
	} else {
		w.cfg.Decisions.AddRoute(w.r.s.Now(), q.W.ID, w.d.prefills[pi].Name(), "least-loaded")
	}
	w.d.prefillAt[q.W.ID] = pi
	w.d.prefills[pi].EnqueuePrefill(q)
}

// logDispatch records one Algorithm 1 decision with the full candidate
// set: every live prefill instance (compute + transfer terms) and the
// decode instance the assist would land on (compute only — its prefill
// needs no KV copy). No-op without a decision log.
func (w *windState) logDispatch(q *engine.Req, in sched.DispatchInput,
	decision sched.DispatchDecision, dec *engine.Instance, target string, toDecode bool) {
	log := w.cfg.Decisions
	if log == nil {
		return
	}
	rec := &sched.DispatchRecord{
		Time:           w.r.s.Now(),
		ReqID:          q.W.ID,
		PromptTokens:   q.W.PromptTokens,
		CachedTokens:   in.CachedTokens,
		Threshold:      w.coord.Thrd,
		BudgetTokens:   w.coord.BudgetTokens,
		AssistInFlight: in.AssistInFlightTokens,
		Slots:          decision.Slots,
		Target:         target,
		ToDecode:       toDecode,
	}
	tx := w.coord.Prof.PredictTransfer(in.TransferBytes)
	for _, p := range w.d.prefills {
		if p.Down() {
			continue
		}
		queued := p.QueuedPrefillTokens()
		comp := w.coord.Prof.PredictPrefill(queued+q.W.PromptTokens) + p.BusyRemaining()
		rec.Candidates = append(rec.Candidates, sched.DispatchCandidate{
			Instance:      p.Name(),
			QueuedTokens:  queued,
			ComputeTTFT:   comp,
			TransferTTFT:  tx,
			PredictedTTFT: comp + tx,
		})
	}
	dcomp := w.coord.Prof.PredictPrefill(in.AssistInFlightTokens + q.W.PromptTokens)
	rec.Candidates = append(rec.Candidates, sched.DispatchCandidate{
		Instance:      dec.Name(),
		QueuedTokens:  in.AssistInFlightTokens,
		ComputeTTFT:   dcomp,
		PredictedTTFT: dcomp,
	})
	log.AddDispatch(rec)
}

// observeTransfer feeds completed prefill→decode copies into the Profiler so
// Algorithm 1's TTFT prediction prices the transfer a prefill-side
// placement implies — on a degraded link that bias shifts dispatch toward
// the decode instance.
func (w *windState) observeTransfer(bytes float64, elapsed sim.Duration) {
	w.coord.Prof.ObserveTransfer(bytes, elapsed)
}

// asyncXfer tracks a transfer overlapped with prefill: the request may
// only start decoding when both the prefill and the copy have finished.
// stamp tells the copy's completion whether it still serves this entry:
// after crash recovery the request may have a newer one.
type asyncXfer struct {
	xferDone    bool
	prefillDone bool
	decodeIdx   int
	stamp       uint64
}

// maybeStartAsyncTransfer begins streaming a request's KV to a decode
// instance as its prefill starts (layer-by-layer in the real system; here
// the copy and the compute occupy their resources concurrently and the
// request proceeds at whichever finishes last).
func (w *windState) maybeStartAsyncTransfer(q *engine.Req) {
	if w.cfg.Wind.DisableAsyncTransfer || q.Assist {
		return
	}
	dj := w.d.pickDecode()
	if dj < 0 {
		return // every decode instance is down; serial path retries later
	}
	if w.d.decodes[dj].KV().Allocate(q.KVID(), q.W.PromptTokens+1) != nil {
		return // no decode blocks: fall back to the serial path at prefill end
	}
	w.asyncSeq++
	w.async[q.W.ID] = asyncXfer{decodeIdx: dj, stamp: w.asyncSeq}
	w.d.decodeAt[q.W.ID] = dj
	w.d.asyncXfers++
	pi := w.d.prefillIdx(q)
	w.d.startCopy(kvCopy{q: q, i: pi, j: dj, stamp: w.asyncSeq,
		bytes: w.d.kvBytes(q.W.PromptTokens), lk: w.d.pdLink(pi, dj), then: w.asyncDone})
}

// finishAsyncCopy lands an async copy.
func (w *windState) finishAsyncCopy(c kvCopy) {
	q := c.q
	w.d.observeTransfer(c.bytes, c.start)
	if w.cfg.Tracer != nil {
		w.cfg.Tracer.Add("link "+c.lk.Name(), trace.KindKVTransfer, c.start, w.r.s.Now(),
			fmt.Sprintf("req%d async %d tokens", q.W.ID, q.W.PromptTokens))
	}
	ax, ok := w.async[q.W.ID]
	if !ok || ax.stamp != c.stamp {
		return // superseded: crash recovery already re-routed the request
	}
	ax.xferDone = true
	w.async[q.W.ID] = ax
	w.maybeFinishAsync(q, ax)
}

// finishPrefillTransfer is the pd transfer hook: async requests complete
// their handoff here; others return false and take the serial path.
func (w *windState) finishPrefillTransfer(q *engine.Req) bool {
	ax, ok := w.async[q.W.ID]
	if !ok {
		return false
	}
	ax.prefillDone = true
	w.async[q.W.ID] = ax
	w.maybeFinishAsync(q, ax)
	return true
}

// maybeFinishAsync hands the request to its decode instance once both
// halves of the current async transfer ax are done.
func (w *windState) maybeFinishAsync(q *engine.Req, ax asyncXfer) {
	if !ax.xferDone || !ax.prefillDone {
		return
	}
	delete(w.async, q.W.ID)
	dec := w.d.decodes[ax.decodeIdx]
	if q.Phase == engine.PhaseAborted {
		w.d.prefills[w.d.prefillIdx(q)].ReleaseKV(q)
		w.d.releaseAt(dec, q)
		return
	}
	if dec.Down() || !dec.KV().Has(q.KVID()) {
		// The destination crashed under the copy (its allocation is gone).
		// The prefilled KV still exists at the source — keep it and
		// serial-transfer to a survivor instead of recomputing.
		delete(w.d.decodeAt, q.W.ID)
		w.d.serialTransfer(q)
		return
	}
	w.d.prefills[w.d.prefillIdx(q)].ReleaseKV(q)
	dec.AdmitDecode(q)
}

// onDecodeIterEnd runs the Global Scheduler's memory-pressure logic after
// every pass of decode instance j: Dynamic Rescheduling on low watermark,
// proactive backups when the imbalance favors them.
func (w *windState) onDecodeIterEnd(j int) {
	dec := w.d.decodes[j]
	dkv := dec.KV()
	freeFrac := 1 - dkv.Utilization()
	if !w.cfg.Wind.DisableResched {
		pol := w.cfg.Wind.Resched
		if pol.ShouldTrigger(freeFrac) && len(w.d.migrating) < pol.MaxConcurrentMigrations {
			capTokens := dkv.TotalBlocks() * dkv.BlockSize()
			need := int((pol.TargetFree - freeFrac) * float64(capTokens))
			victims := pol.PickVictims(dec.Running(), need, pol.MaxConcurrentMigrations-len(w.d.migrating))
			for _, v := range victims {
				w.startMigration(v, j, freeFrac)
			}
		}
	}
	if !w.cfg.Wind.DisableBackup {
		w.maybeBackup(j, freeFrac)
	}
}

// --- Stall-free rescheduling (paper §3.3) ------------------------------

// startMigration begins moving a long-context decode job from decode
// instance src to a prefill instance without stopping its decoding (the
// protocol is in migration.go). The destination is the prefill holding
// the job's backup, which leaves only the delta to copy, else the one
// with the most free KV. freeFrac is the source's free-KV fraction at
// trigger time (logged).
func (w *windState) startMigration(q *engine.Req, src int, freeFrac float64) {
	id := q.KVID()
	clean := 0
	dst := w.freestPrefillIdx()
	if bi, ok := w.backupAt[q.W.ID]; ok && q.BackupTokens > 0 {
		pkv := w.d.prefills[bi].KV()
		if pkv.Has(id) && pkv.IsBackup(id) && pkv.PromoteBackup(id) == nil {
			// A backup already holds the first BackupTokens of context at
			// instance bi; only the delta must move there.
			dst = bi
			clean = q.BackupTokens
			delete(w.backupAt, q.W.ID)
		}
	}
	if clean == 0 {
		if dst < 0 {
			return // every prefill instance is down; nowhere to migrate
		}
		if w.d.prefills[dst].KV().Allocate(id, q.Ctx()+1) != nil {
			return // prefill memory too tight; try again on a later trigger
		}
	}
	w.rescheduled++
	now := w.r.s.Now()
	rec := w.cfg.Decisions.AddReschedule(&sched.RescheduleRecord{
		Time:         now,
		ReqID:        q.W.ID,
		Trigger:      "low-watermark",
		FreeFrac:     freeFrac,
		Src:          w.d.decodes[src].Name(),
		Dst:          w.d.prefills[dst].Name(),
		CtxTokens:    q.Ctx(),
		BackupTokens: clean,
	})
	if w.cfg.Tracer != nil {
		w.cfg.Tracer.Add("scheduler", trace.KindReschedule, now, now,
			fmt.Sprintf("req%d d%d→p%d ctx=%d backup=%d", q.W.ID, src, dst, q.Ctx(), clean))
	}
	w.d.migrate(&migration{q: q, src: w.d.dPhys(src), dst: dst, clean: clean, rec: rec}, true)
}

// --- Proactive KV backups (paper §3.3) ---------------------------------

// maybeBackup copies a long request's KV from decode instance j to a
// prefill instance's spare blocks when the decode side is filling and the
// prefill side is not: a later migration then only moves the delta.
func (w *windState) maybeBackup(j int, decodeFreeFrac float64) {
	pi := w.freestPrefillIdx()
	if pi < 0 {
		return // no live prefill instance to hold a backup
	}
	if w.d.dpLink(j, pi).Busy() {
		return // keep backups off the critical path of migrations
	}
	pkv := w.d.prefills[pi].KV()
	prefillFree := 1 - pkv.Utilization()
	if !sched.ShouldBackup(decodeFreeFrac, prefillFree) {
		return
	}
	cand := sched.PickBackupCandidate(w.d.decodes[j].Running(), w.backupInFlight)
	if cand == nil {
		return
	}
	snap := cand.Ctx()
	if pkv.AllocateBackup(cand.KVID(), snap) != nil {
		return
	}
	w.backupInFlight[cand.W.ID] = true
	w.d.startCopy(kvCopy{q: cand, i: pi, j: j, tokens: snap,
		bytes: w.d.kvBytes(snap), lk: w.d.dpLink(j, pi), then: w.backupDone})
}

// finishBackup lands a backup copy.
func (w *windState) finishBackup(c kvCopy) {
	cand, pi, snap := c.q, c.i, c.tokens
	delete(w.backupInFlight, cand.W.ID)
	if w.cfg.Tracer != nil {
		w.cfg.Tracer.Add("link "+c.lk.Name(), trace.KindKVTransfer, c.start, w.r.s.Now(),
			fmt.Sprintf("req%d backup %d tokens", cand.W.ID, snap))
	}
	pkv := w.d.prefills[pi].KV()
	if cand.Phase == engine.PhaseDone || cand.Phase == engine.PhaseAborted ||
		!pkv.Has(cand.KVID()) || !pkv.IsBackup(cand.KVID()) {
		return // finished, cancelled, or promoted while copying
	}
	cand.BackupTokens = snap
	w.backupAt[cand.W.ID] = pi
	w.backups++
}

// onComplete cleans up cross-instance state for a finished request.
func (w *windState) onComplete(q *engine.Req) {
	w.releaseForeign(q)
}

// releaseForeign drops any allocation the request holds on instances it
// did NOT complete on (backups, stale migration targets, async copies).
func (w *windState) releaseForeign(q *engine.Req) {
	for _, ins := range w.d.ins {
		w.d.releaseAt(ins, q)
	}
	delete(w.async, q.W.ID)
	delete(w.backupAt, q.W.ID)
}

// --- Failure recovery (fault injection) --------------------------------
//
// The fault model and its invariants are documented in DESIGN.md. The
// short version: a crash loses an instance's KV and in-flight work;
// payloads already on a link are "captured" and complete; orphans restore
// from a KV backup when one survives, and re-prefill from scratch (losing
// generated-token KV, hence re-decoding) otherwise. All map iteration
// below walks sorted keys so recovery order — and therefore the whole
// simulation — is deterministic.

// abort is the runner's onAbort: scrub a terminated request (Phase is
// already PhaseAborted) from every WindServe structure.
func (w *windState) abort(q *engine.Req) {
	delete(w.backupInFlight, q.W.ID)
	w.d.abort(q)
	w.releaseForeign(q)
}

// crash is the pd crash hook: pd.crash has taken physical instance k
// down and dropped the migrations touching it. A prefill crash
// re-dispatches its orphans (engine orphans plus requests waiting on its
// KV for a serial transfer), and backups held there evaporate. A decode
// crash drops async transfers into it back to the serial path and sends
// every orphan, paused migrations out of it included, through
// backup-or-scratch recovery.
func (w *windState) crash(k int, orphans []*engine.Req) {
	if k < len(w.d.prefills) {
		for _, id := range sortedIDs(w.backupAt) {
			if w.backupAt[id] != k {
				continue
			}
			delete(w.backupAt, id)
			if q, ok := w.r.live[id]; ok {
				q.BackupTokens = 0
			}
		}
		for _, q := range orphans {
			w.rePrefill(q)
		}
		return
	}
	j := k - len(w.d.prefills)
	for _, id := range sortedIDs(w.async) {
		ax := w.async[id]
		if ax.decodeIdx != j {
			continue
		}
		if !ax.prefillDone {
			// Still prefilling at the source: drop the dead transfer so
			// prefill completion takes the serial path to a survivor. The
			// stale copy's completion no-ops (no entry, or a newer stamp).
			delete(w.async, id)
			delete(w.d.decodeAt, id)
		}
		// With prefillDone set the request waits only on the copy; its
		// callback's Down/Has guard re-routes it when it fires.
	}
	for _, q := range orphans {
		w.recoverDecodeOrphan(q)
	}
}

// recoverDecodeOrphan re-homes a request whose decode-side KV vanished.
// If a live prefill instance still holds a proactive backup, the backup
// promotes to a working copy and decoding resumes there, rolled back to
// the snapshot (tokens generated after the backup lost their KV with the
// crash and are re-decoded). Otherwise the request re-prefills from
// scratch.
func (w *windState) recoverDecodeOrphan(q *engine.Req) {
	id := q.W.ID
	delete(w.async, id)
	delete(w.backupInFlight, id)
	delete(w.d.decodeAt, id)
	if bi, ok := w.backupAt[id]; ok && q.BackupTokens > 0 && !w.d.prefills[bi].Down() {
		pkv := w.d.prefills[bi].KV()
		if pkv.Has(q.KVID()) && pkv.IsBackup(q.KVID()) && pkv.PromoteBackup(q.KVID()) == nil {
			delete(w.backupAt, id)
			// Drop any other allocation the request holds (a stale async
			// copy) — everything but the promoted backup.
			for k, ins := range w.d.ins {
				if k != bi {
					w.d.releaseAt(ins, q)
				}
			}
			snap := q.BackupTokens
			q.BackupTokens = 0
			if gen := snap - q.W.PromptTokens; gen >= 1 && gen < q.Generated() {
				q.SetGenerated(gen)
			}
			w.d.prefillAt[id] = bi
			w.r.markRecovered(q)
			w.d.prefills[bi].InsertRunning(q)
			return
		}
	}
	w.rePrefill(q)
}

// rePrefill is scratch recovery: release everything the request holds
// anywhere, then re-prefill it through dispatch (pd.reprefill).
func (w *windState) rePrefill(q *engine.Req) {
	w.releaseForeign(q)
	delete(w.backupInFlight, q.W.ID)
	w.d.reprefill(q, w.submit)
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
