package serve

import (
	"testing"

	"windserve/internal/engine"
	"windserve/internal/metrics"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// These tests pin what a crash or an abort does to a running request that
// is mid-migration, for WindServe's rescheduling and for an elastic flip.
// Each drives the migration by hand, injects the fault at a chosen step,
// and checks that the request has one owner afterwards and that the run
// drains with nothing left open and no KV block left allocated.

// windBed builds a WindServe cluster wired as RunWindServe wires it (hooks,
// crash recovery, abort scrub) without a workload. Rescheduling and
// backups never trigger on their own, so migrations start only by hand.
func windBed(t *testing.T, np, nd int) *windState {
	t.Helper()
	cfg := cfg13B(t)
	cfg.NumPrefill, cfg.NumDecode = np, nd
	cfg.Wind.DisableResched, cfg.Wind.DisableBackup = true, true
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := bareWindState(r)
	d, err := newPD(r, r.cfg, pdHooks{
		onPrefillStart:  w.maybeStartAsyncTransfer,
		transfer:        w.finishPrefillTransfer,
		onDecodeIterEnd: w.onDecodeIterEnd,
		onComplete:      w.onComplete,
		onTransfer:      w.observeTransfer,
		crash:           w.crash,
		decodeSBD:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.d = d
	w.coord = testCoordinator(t, d)
	r.queueDepth = d.queueDepth
	r.onAbort = w.abort
	return w
}

// decodingAt admits a request straight into decode instance j's running
// batch, prefilled, with generated tokens already out and its KV resident.
func decodingAt(t *testing.T, w *windState, id uint64, prompt, generated, output, j int) *engine.Req {
	t.Helper()
	q := engine.NewReq(workload.Request{ID: id, PromptTokens: prompt, OutputTokens: output})
	q.PrefillDone = prompt
	q.SetGenerated(generated)
	now := w.r.s.Now()
	w.r.rec.Arrive(id, prompt, output, now)
	w.r.rec.PrefillStart(id, now)
	w.r.rec.FirstToken(id, now)
	w.r.live[id] = q
	dec := w.d.decodes[j]
	if err := dec.KV().Allocate(q.KVID(), q.Ctx()+1); err != nil {
		t.Fatal(err)
	}
	w.d.decodeAt[id] = j
	dec.InsertRunning(q)
	return q
}

// runningOn counts the instances whose running batch holds q.
func runningOn(ins []*engine.Instance, q *engine.Req) int {
	n := 0
	for _, in := range ins {
		for _, x := range in.Running() {
			if x == q {
				n++
			}
		}
	}
	return n
}

// holdingKV counts the instances whose KV manager holds q's blocks.
func holdingKV(ins []*engine.Instance, q *engine.Req) int {
	n := 0
	for _, in := range ins {
		if in.KV().Has(q.KVID()) {
			n++
		}
	}
	return n
}

// checkDrained asserts that a run left nothing behind: no open record, no
// allocated KV block, and no request completed twice.
func checkDrained(t *testing.T, rec *metrics.Recorder, ins []*engine.Instance) {
	t.Helper()
	if n := rec.Outstanding(); n != 0 {
		t.Errorf("%d requests unfinished", n)
	}
	blocks := 0
	for _, in := range ins {
		blocks += in.KV().UsedBlocks()
	}
	if blocks != 0 {
		t.Errorf("%d KV blocks still allocated", blocks)
	}
	seen := map[uint64]bool{}
	for _, r := range rec.Completed() {
		if seen[r.ID] {
			t.Errorf("request %d completed twice", r.ID)
		}
		seen[r.ID] = true
	}
}

// settle steps the simulator until q's migration is resolved one way or
// the other: q neither migrating nor paused.
func settle(s *sim.Simulator, q *engine.Req) {
	for (q.Migrating || q.Phase == engine.PhaseDraining) && s.Step() {
	}
}

// TestWindMigrationDestinationCrash: the destination prefill crashes
// while a copy round is on the wire, or while the paused tail copies. The
// source still holds the KV, so the victim decodes on there, and the
// crash freed the destination's blocks.
func TestWindMigrationDestinationCrash(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prompt int
		phase  engine.Phase
	}{
		{"mid-round", 4000, engine.PhaseDecoding}, // dirty span ≫ drain threshold
		{"mid-drain", 40, engine.PhaseDraining},   // ctx 50 ≤ drain threshold
	} {
		w := windBed(t, 1, 1)
		q := decodingAt(t, w, 1, tc.prompt, 10, 400, 0)
		w.startMigration(q, 0, 0.05)
		if !q.Migrating || q.Phase != tc.phase || !w.d.prefills[0].KV().Has(q.KVID()) {
			t.Fatalf("%s: migration not under way: %v", tc.name, q)
		}
		w.d.crash(0)
		settle(w.r.s, q)
		if q.Migrating || q.Phase != engine.PhaseDecoding {
			t.Fatalf("%s: victim not back to plain decoding: %v migrating=%v", tc.name, q, q.Migrating)
		}
		if runningOn(w.d.ins, q) != 1 || runningOn(w.d.decodes, q) != 1 {
			t.Fatalf("%s: victim not running at its source alone", tc.name)
		}
		if w.d.prefills[0].KV().Has(q.KVID()) {
			t.Fatalf("%s: destination still holds the victim's blocks", tc.name)
		}
		w.r.s.RunAll()
		if !q.Finished() {
			t.Fatalf("%s: victim never finished: %v", tc.name, q)
		}
		checkDrained(t, w.r.rec, w.d.ins)
	}
}

// TestWindMigrationSourceCrashMidDrain: the source decode crashes while
// the paused tail copies. Its KV is gone, so the request restores from a
// backup a surviving prefill holds, or re-prefills from scratch without
// one; the migration's destination frees its copy either way.
func TestWindMigrationSourceCrashMidDrain(t *testing.T) {
	for _, backup := range []bool{true, false} {
		w := windBed(t, 2, 2)
		q := decodingAt(t, w, 1, 40, 10, 200, 0)
		w.startMigration(q, 0, 0.05) // ctx 50 ≤ drain threshold: straight to the drain
		if q.Phase != engine.PhaseDraining {
			t.Fatalf("backup=%v: phase %v, want an immediate drain", backup, q.Phase)
		}
		if !w.d.prefills[0].KV().Has(q.KVID()) {
			t.Fatalf("backup=%v: drain not headed for prefill 0", backup)
		}
		if backup {
			// A backup taken at 5 generated tokens landed at prefill 1
			// while the migration was under way.
			if err := w.d.prefills[1].KV().AllocateBackup(q.KVID(), 45); err != nil {
				t.Fatal(err)
			}
			q.BackupTokens = 45
			w.backupAt[q.W.ID] = 1
		}
		w.d.crash(len(w.d.prefills))
		settle(w.r.s, q)
		if q.Migrating {
			t.Fatalf("backup=%v: migration never resolved", backup)
		}
		if w.d.prefills[0].KV().Has(q.KVID()) {
			t.Errorf("backup=%v: migration destination still holds the request's blocks", backup)
		}
		if !w.r.recovered[q.W.ID] {
			t.Errorf("backup=%v: recovery not counted", backup)
		}
		if backup {
			if runningOn(w.d.ins, q) != 1 || runningOn(w.d.prefills[1:], q) != 1 {
				t.Fatalf("request not resumed at the backup's instance alone: %v", q)
			}
			if q.Generated() != 5 || holdingKV(w.d.ins, q) != 1 {
				t.Errorf("restore: generated %d (want 5), KV on %d instances (want 1)", q.Generated(), holdingKV(w.d.ins, q))
			}
		} else {
			if runningOn(w.d.ins, q) != 0 || q.PrefillDone != 0 || q.Generated() != 0 {
				t.Fatalf("request not re-prefilling from scratch: %v", q)
			}
		}
		w.r.s.RunAll()
		if !q.Finished() {
			t.Fatalf("backup=%v: request never finished: %v", backup, q)
		}
		checkDrained(t, w.r.rec, w.d.ins)
	}
}

// TestWindMigrationAbortMidDrainThenResubmit: the request is aborted while
// its tail copies, and a new request under the same ID arrives and starts
// its own migration before the old copy lands. The old migration's
// callback is stale and must touch neither request.
func TestWindMigrationAbortMidDrainThenResubmit(t *testing.T) {
	w := windBed(t, 1, 1)
	old := decodingAt(t, w, 7, 40, 10, 200, 0)
	w.startMigration(old, 0, 0.05)
	if old.Phase != engine.PhaseDraining {
		t.Fatalf("phase %v, want an immediate drain", old.Phase)
	}
	w.r.abortReq(old.W.ID)
	if holdingKV(w.d.ins, old) != 0 || runningOn(w.d.ins, old) != 0 || old.Migrating {
		t.Fatalf("abort left the migration behind: KV on %d, running on %d, migrating=%v",
			holdingKV(w.d.ins, old), runningOn(w.d.ins, old), old.Migrating)
	}
	q := decodingAt(t, w, 7, 40, 10, 200, 0)
	w.startMigration(q, 0, 0.05)
	settle(w.r.s, q)
	if old.Phase != engine.PhaseAborted || runningOn(w.d.ins, old) != 0 {
		t.Fatalf("stale callback revived the aborted request: %v", old)
	}
	if runningOn(w.d.ins, q) != 1 || runningOn(w.d.prefills, q) != 1 || holdingKV(w.d.ins, q) != 1 {
		t.Fatalf("newcomer did not land at the prefill alone: running on %d, KV on %d: %v",
			runningOn(w.d.ins, q), holdingKV(w.d.ins, q), q)
	}
	w.r.s.RunAll()
	if !q.Finished() {
		t.Fatalf("newcomer never finished: %v", q)
	}
	checkDrained(t, w.r.rec, w.d.ins)
}

// flipMidDecode runs the burst of TestFlipToPrefillMigratesRunningStreams
// on an elastic cluster and, right after the flip to prefill at 1.5 s,
// hands the lowest migrating ID to fault.
func flipMidDecode(t *testing.T, s *sim.Simulator, flip func() FlipResult, d *pd, fault func(id uint64)) {
	t.Helper()
	s.At(sim.Time(0).Add(sim.Seconds(1.5)), func() {
		fr := flip()
		ids := sortedIDs(d.migrating)
		if !fr.OK || fr.Migrating == 0 || len(ids) == 0 {
			t.Fatalf("flip mid-decode migrated nothing: %+v", fr)
		}
		fault(ids[0])
	})
}

// TestFlipMigrationAbortMidFlight: a request is aborted while its KV
// crosses to another acting decode. Both ends free it, its callback stays
// stale, and the rest of the run drains.
func TestFlipMigrationAbortMidFlight(t *testing.T) {
	r, d := elasticPD(t)
	var victim *engine.Req
	flipMidDecode(t, r.s, func() FlipResult { return d.flip(false) }, d, func(id uint64) {
		victim = r.live[id]
		r.abortReq(id)
		if holdingKV(d.ins, victim) != 0 || runningOn(d.ins, victim) != 0 {
			t.Fatalf("abort left the migration behind: KV on %d, running on %d",
				holdingKV(d.ins, victim), runningOn(d.ins, victim))
		}
	})
	r.scheduleStream(workload.NewSliceSource(burst(40, 200, 300, sim.Seconds(0.01))), d.prefillRR)
	res, err := r.run("elastic-test")
	if err != nil {
		t.Fatal(err)
	}
	if victim == nil || victim.Phase != engine.PhaseAborted || runningOn(d.ins, victim) != 0 {
		t.Fatalf("aborted victim came back: %v", victim)
	}
	if res.Aborted != 1 || len(res.Records) != 39 {
		t.Errorf("%d aborted, %d completed; want 1 and 39", res.Aborted, len(res.Records))
	}
	if res.Unfinished != 0 || res.LiveKVBlocks != 0 {
		t.Errorf("%d unfinished, %d live KV blocks", res.Unfinished, res.LiveKVBlocks)
	}
	checkDrained(t, r.rec, d.ins)
}

// TestFlipMigrationReplicaCrashMidFlight: the whole replica crashes while
// a flip's migrations are in flight, restores at once, and every orphan
// is resubmitted under its own ID before the stale copies land. No stale
// callback may touch a newcomer, and every request finishes once.
func TestFlipMigrationReplicaCrashMidFlight(t *testing.T) {
	cfg := cfg13B(t)
	cfg.NumPrefill, cfg.NumDecode = 2, 2
	s := sim.New()
	rec := metrics.NewRecorder()
	rp, err := NewReplica(s, rec, cfg, "r0", true)
	if err != nil {
		t.Fatal(err)
	}
	reqs := burst(40, 200, 300, sim.Seconds(0.01))
	for _, w := range reqs {
		s.At(w.Arrival, func() {
			rec.Arrive(w.ID, w.PromptTokens, w.OutputTokens, s.Now())
			rp.Submit(w)
		})
	}
	var stale []*engine.Req
	flipMidDecode(t, s, func() FlipResult { return rp.Flip(false) }, rp.d, func(uint64) {
		for _, id := range sortedIDs(rp.d.migrating) {
			stale = append(stale, rp.d.migrating[id].q)
		}
		orphans := rp.Crash()
		rp.Restore()
		for _, q := range orphans {
			rp.Submit(q.W)
		}
	})
	s.Run(sim.Time(0).Add(sim.Seconds(2)))
	for _, q := range stale {
		if q.Phase != engine.PhaseAborted || runningOn(rp.d.ins, q) != 0 {
			t.Fatalf("stale migration callback revived %v", q)
		}
		if nq := rp.r.live[q.W.ID]; nq != nil && runningOn(rp.d.ins, nq) > 1 {
			t.Fatalf("newcomer %v runs on %d instances", nq, runningOn(rp.d.ins, nq))
		}
	}
	s.RunAll()
	if len(stale) == 0 {
		t.Fatal("no migration was in flight at the crash")
	}
	if len(rec.Completed()) != len(reqs) {
		t.Errorf("%d of %d completed", len(rec.Completed()), len(reqs))
	}
	if st := rp.Stats(s.Now()); st.LiveKVBlocks != 0 {
		t.Errorf("%d live KV blocks", st.LiveKVBlocks)
	}
	checkDrained(t, rec, rp.d.ins)
}
