package serve

import (
	"sort"
	"testing"

	"windserve/internal/engine"
	"windserve/internal/metrics"
	"windserve/internal/sched"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// These tests pin what a crash or an abort does to a running request that
// is mid-migration, for WindServe's rescheduling and for an elastic flip.
// Each drives the migration by hand, injects the fault at a chosen step,
// and checks that the request has one owner afterwards and that the run
// drains with nothing left open and no KV block left allocated.

// windBed builds a WindServe cluster wired as RunWindServe wires it,
// without a workload. Rescheduling and backups never trigger on their
// own, so migrations start only by hand.
func windBed(t *testing.T, np, nd int) *pd {
	t.Helper()
	cfg := cfg13B(t)
	cfg.NumPrefill, cfg.NumDecode = np, nd
	cfg.Wind.DisableResched, cfg.Wind.DisableBackup = true, true
	return bed(t, cfg, "", false)
}

// decodingAt admits a request straight into decode instance j's running
// batch, prefilled, with generated tokens already out and its KV resident.
func decodingAt(t *testing.T, d *pd, id uint64, prompt, generated, output, j int) *engine.Req {
	t.Helper()
	q := newFlight(workload.Request{ID: id, PromptTokens: prompt, OutputTokens: output})
	q.PrefillDone = prompt
	q.SetGenerated(generated)
	now := d.r.s.Now()
	d.r.rec.Arrive(id, prompt, output, now)
	d.r.rec.PrefillStart(id, now)
	d.r.rec.FirstToken(id, now)
	d.r.live[id] = q
	dec := d.decodes[j]
	if err := dec.AllocateKV(q, q.Ctx()+1); err != nil {
		t.Fatal(err)
	}
	fl(q).di = j
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
		if in.KVOf(q) != nil {
			n++
		}
	}
	return n
}

// checkDrained asserts that a run left nothing behind: no open record, no
// live KV allocation on any instance (on GPU or swapped, holding blocks or
// not) and no allocated GPU block, and no request completed twice.
func checkDrained(t *testing.T, rec *metrics.Recorder, ins []*engine.Instance) {
	t.Helper()
	if n := rec.Outstanding(); n != 0 {
		t.Errorf("%d requests unfinished", n)
	}
	for _, in := range ins {
		if n, blocks := in.KV().LiveAllocs(), in.KV().UsedBlocks(); n != 0 || blocks != 0 {
			t.Errorf("%s: %d KV allocations and %d GPU blocks still held", in.Name(), n, blocks)
		}
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
		d := windBed(t, 1, 1)
		q := decodingAt(t, d, 1, tc.prompt, 10, 400, 0)
		d.startMigration(q, 0, 0.05)
		if !q.Migrating || q.Phase != tc.phase || d.prefills[0].KVOf(q) == nil {
			t.Fatalf("%s: migration not under way: %v", tc.name, q)
		}
		d.crash(0)
		settle(d.r.s, q)
		if q.Migrating || q.Phase != engine.PhaseDecoding {
			t.Fatalf("%s: victim not back to plain decoding: %v migrating=%v", tc.name, q, q.Migrating)
		}
		if runningOn(d.ins, q) != 1 || runningOn(d.decodes, q) != 1 {
			t.Fatalf("%s: victim not running at its source alone", tc.name)
		}
		if d.prefills[0].KVOf(q) != nil {
			t.Fatalf("%s: destination still holds the victim's blocks", tc.name)
		}
		d.r.s.RunAll()
		if !q.Finished() {
			t.Fatalf("%s: victim never finished: %v", tc.name, q)
		}
		checkDrained(t, d.r.rec, d.ins)
	}
}

// TestWindMigrationCrashAfterCompletion: the victim finishes decoding
// while a copy round is on the wire, so it leaves runner.live but keeps
// its migration until the round lands. The destination prefill then
// crashes. The crash drops that migration at once, as it drops every
// migration touching the instance: the round's callback goes stale, and
// the decision record reads "dead" with no round logged.
func TestWindMigrationCrashAfterCompletion(t *testing.T) {
	cfg := cfg13B(t)
	cfg.NumPrefill, cfg.NumDecode = 1, 1
	cfg.Wind.DisableResched, cfg.Wind.DisableBackup = true, true
	cfg.Decisions = sched.NewDecisionLog()
	d := bed(t, cfg, "", false)
	q := decodingAt(t, d, 1, 4000, 198, 200, 0)
	d.startMigration(q, 0, 0.05) // dirty span ≫ drain threshold → copy round in flight
	m := fl(q).mig
	if m == nil || m.rec == nil || q.Phase != engine.PhaseDecoding {
		t.Fatalf("copy round not under way: %v", q)
	}
	for q.Phase != engine.PhaseDone && d.r.s.Step() {
	}
	if _, live := d.r.live[q.W.ID]; live || fl(q).mig != m || len(d.migs) != 1 || len(m.rec.Rounds) != 0 {
		t.Fatalf("request did not complete mid-round: %v, live=%v, %d migrations, %d rounds",
			q, live, len(d.migs), len(m.rec.Rounds))
	}
	d.crash(0)
	if q.Migrating || fl(q).mig != nil || len(d.migs) != 0 || m.rec.Outcome != "dead" {
		t.Fatalf("crash kept the finished request's migration: migrating=%v, %d migrations, outcome %q",
			q.Migrating, len(d.migs), m.rec.Outcome)
	}
	d.r.s.RunAll()
	if len(m.rec.Rounds) != 0 {
		t.Errorf("stale callback logged %d rounds", len(m.rec.Rounds))
	}
	checkDrained(t, d.r.rec, d.ins)
}

// TestWindMigrationSourceCrashMidDrain: the source decode crashes while
// the paused tail copies. Its KV is gone, so the request restores from a
// backup a surviving prefill holds, or re-prefills from scratch without
// one; the migration's destination frees its copy either way.
func TestWindMigrationSourceCrashMidDrain(t *testing.T) {
	for _, backup := range []bool{true, false} {
		d := windBed(t, 2, 2)
		q := decodingAt(t, d, 1, 40, 10, 200, 0)
		d.startMigration(q, 0, 0.05) // ctx 50 ≤ drain threshold: straight to the drain
		if q.Phase != engine.PhaseDraining {
			t.Fatalf("backup=%v: phase %v, want an immediate drain", backup, q.Phase)
		}
		if d.prefills[0].KVOf(q) == nil {
			t.Fatalf("backup=%v: drain not headed for prefill 0", backup)
		}
		if backup {
			// A backup taken at 5 generated tokens landed at prefill 1
			// while the migration was under way.
			if _, err := d.prefills[1].KV().AllocateBackup(&q.Holder, q.KVID(), 45); err != nil {
				t.Fatal(err)
			}
			q.BackupTokens = 45
			fl(q).backupAt = 1
		}
		d.crash(len(d.prefills))
		settle(d.r.s, q)
		if q.Migrating {
			t.Fatalf("backup=%v: migration never resolved", backup)
		}
		if d.prefills[0].KVOf(q) != nil {
			t.Errorf("backup=%v: migration destination still holds the request's blocks", backup)
		}
		if !fl(q).recovered {
			t.Errorf("backup=%v: recovery not counted", backup)
		}
		if backup {
			if runningOn(d.ins, q) != 1 || runningOn(d.prefills[1:], q) != 1 {
				t.Fatalf("request not resumed at the backup's instance alone: %v", q)
			}
			if q.Generated() != 5 || holdingKV(d.ins, q) != 1 {
				t.Errorf("restore: generated %d (want 5), KV on %d instances (want 1)", q.Generated(), holdingKV(d.ins, q))
			}
		} else {
			if runningOn(d.ins, q) != 0 || q.PrefillDone != 0 || q.Generated() != 0 {
				t.Fatalf("request not re-prefilling from scratch: %v", q)
			}
		}
		d.r.s.RunAll()
		if !q.Finished() {
			t.Fatalf("backup=%v: request never finished: %v", backup, q)
		}
		checkDrained(t, d.r.rec, d.ins)
	}
}

// TestWindMigrationAbortMidDrainThenResubmit: the request is aborted while
// its tail copies, and a new request under the same ID arrives and starts
// its own migration before the old copy lands. The old migration's
// callback is stale and must touch neither request.
func TestWindMigrationAbortMidDrainThenResubmit(t *testing.T) {
	d := windBed(t, 1, 1)
	old := decodingAt(t, d, 7, 40, 10, 200, 0)
	d.startMigration(old, 0, 0.05)
	if old.Phase != engine.PhaseDraining {
		t.Fatalf("phase %v, want an immediate drain", old.Phase)
	}
	d.r.abortReq(old.W.ID)
	if holdingKV(d.ins, old) != 0 || runningOn(d.ins, old) != 0 || old.Migrating {
		t.Fatalf("abort left the migration behind: KV on %d, running on %d, migrating=%v",
			holdingKV(d.ins, old), runningOn(d.ins, old), old.Migrating)
	}
	q := decodingAt(t, d, 7, 40, 10, 200, 0)
	d.startMigration(q, 0, 0.05)
	settle(d.r.s, q)
	if old.Phase != engine.PhaseAborted || runningOn(d.ins, old) != 0 {
		t.Fatalf("stale callback revived the aborted request: %v", old)
	}
	if runningOn(d.ins, q) != 1 || runningOn(d.prefills, q) != 1 || holdingKV(d.ins, q) != 1 {
		t.Fatalf("newcomer did not land at the prefill alone: running on %d, KV on %d: %v",
			runningOn(d.ins, q), holdingKV(d.ins, q), q)
	}
	d.r.s.RunAll()
	if !q.Finished() {
		t.Fatalf("newcomer never finished: %v", q)
	}
	checkDrained(t, d.r.rec, d.ins)
}

// migratingReqs returns the requests of d's live migrations in ID order.
func migratingReqs(d *pd) []*engine.Req {
	var qs []*engine.Req
	for _, m := range d.migs {
		qs = append(qs, m.q)
	}
	sort.Slice(qs, func(a, b int) bool { return qs[a].W.ID < qs[b].W.ID })
	return qs
}

// flipMidDecode runs the burst of TestFlipToPrefillMigratesRunningStreams
// on an elastic cluster and, right after the flip to prefill at 1.5 s,
// hands the lowest migrating ID to fault.
func flipMidDecode(t *testing.T, s *sim.Simulator, flip func() FlipResult, d *pd, fault func(id uint64)) {
	t.Helper()
	s.At(sim.Time(0).Add(sim.Seconds(1.5)), func() {
		fr := flip()
		qs := migratingReqs(d)
		if !fr.OK || fr.Migrating == 0 || len(qs) == 0 {
			t.Fatalf("flip mid-decode migrated nothing: %+v", fr)
		}
		fault(qs[0].W.ID)
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
	rec := metrics.NewRecorder(cfg.SLO, 0)
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
		stale = migratingReqs(rp.d)
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
