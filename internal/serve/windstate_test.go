package serve

import (
	"testing"

	"windserve/internal/engine"
	"windserve/internal/sched"
	"windserve/internal/workload"
)

// newWindStateForTest builds a windState over a real pd without running a
// workload, for unit-testing the migration state machine's edges.
func newWindStateForTest(t *testing.T) *windState {
	t.Helper()
	r, err := newRunner(cfg13B(t))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newPD(r, r.cfg, pdHooks{})
	if err != nil {
		t.Fatal(err)
	}
	w := bareWindState(r)
	w.d = d
	w.coord = testCoordinator(t, d)
	return w
}

// bareWindState is a windState on r with its maps made and no cluster.
func bareWindState(r *runner) *windState {
	return &windState{
		r: r, cfg: r.cfg,
		async:          make(map[uint64]*asyncXfer),
		backupInFlight: make(map[uint64]bool),
		backupAt:       make(map[uint64]int),
	}
}

// testCoordinator is a Global Scheduler profiled on d's prefill cost model.
func testCoordinator(t *testing.T, d *pd) *sched.Coordinator {
	t.Helper()
	prof, err := sched.Profile(d.prefills[0].CM())
	if err != nil {
		t.Fatal(err)
	}
	return &sched.Coordinator{Prof: prof, Thrd: d.cfg.SLO.TTFT}
}

func TestAbortMigrationReleasesDestination(t *testing.T) {
	for _, phase := range []engine.Phase{engine.PhaseDone, engine.PhaseSwapped, engine.PhaseWaiting} {
		w := newWindStateForTest(t)
		q := engine.NewReq(workload.Request{ID: 7, PromptTokens: 500, OutputTokens: 50})
		q.PrefillDone = 500
		q.SetGenerated(10)
		q.Migrating = true
		q.Phase = phase
		pkv := w.d.prefills[0].KV()
		if err := pkv.Allocate(q.KVID(), q.Ctx()+1); err != nil {
			t.Fatal(err)
		}
		m := &migration{q: q, src: len(w.d.prefills), dst: 0}
		w.d.migrating[q.W.ID] = m
		w.d.copyRound(m)
		if q.Migrating {
			t.Errorf("phase %v: Migrating flag not cleared", phase)
		}
		if len(w.d.migrating) != 0 {
			t.Errorf("phase %v: migration entry not removed", phase)
		}
		if pkv.Has(q.KVID()) {
			t.Errorf("phase %v: destination allocation leaked", phase)
		}
	}
}

func TestAbortMigrationNotTakenWhileDecoding(t *testing.T) {
	w := newWindStateForTest(t)
	q := engine.NewReq(workload.Request{ID: 8, PromptTokens: 500, OutputTokens: 50})
	q.PrefillDone = 500
	q.SetGenerated(10)
	q.Phase = engine.PhaseDecoding
	m := &migration{q: q, src: len(w.d.prefills), dst: 0}
	w.d.migrating[q.W.ID] = m
	w.d.copyRound(m)
	if w.d.migrating[q.W.ID] != m || q.Phase != engine.PhaseDecoding {
		t.Fatal("live migration dropped")
	}
}

func TestStartMigrationFailsGracefullyWithoutPrefillKV(t *testing.T) {
	w := newWindStateForTest(t)
	// Fill the prefill instance's KV so the destination allocation fails.
	pkv := w.d.prefills[0].KV()
	if err := pkv.Allocate(999, pkv.FreeTokens()); err != nil {
		t.Fatal(err)
	}
	q := engine.NewReq(workload.Request{ID: 9, PromptTokens: 1000, OutputTokens: 50})
	q.PrefillDone = 1000
	q.SetGenerated(5)
	q.Phase = engine.PhaseDecoding
	w.startMigration(q, 0, 0.05)
	if q.Migrating || len(w.d.migrating) != 0 || w.rescheduled != 0 {
		t.Error("migration should not start without destination blocks")
	}
}

func TestStartMigrationUsesBackupDelta(t *testing.T) {
	w := newWindStateForTest(t)
	q := engine.NewReq(workload.Request{ID: 10, PromptTokens: 1000, OutputTokens: 200})
	q.PrefillDone = 1000
	q.SetGenerated(100)
	q.Phase = engine.PhaseDecoding
	// The engine will decode it to completion and report to the recorder.
	w.r.rec.Arrive(q.W.ID, q.W.PromptTokens, q.W.OutputTokens, 0)
	w.r.rec.PrefillStart(q.W.ID, 0)
	w.r.rec.FirstToken(q.W.ID, 0)
	q.BackupTokens = 1050
	w.backupAt[q.W.ID] = 0
	pkv := w.d.prefills[0].KV()
	if err := pkv.AllocateBackup(q.KVID(), 1050); err != nil {
		t.Fatal(err)
	}
	// Decode-side allocation so the drain path can release it.
	if err := w.d.decodes[0].KV().Allocate(q.KVID(), q.Ctx()+1); err != nil {
		t.Fatal(err)
	}
	w.d.decodes[0].InsertRunning(q)
	w.startMigration(q, 0, 0.05)
	if !q.Migrating {
		t.Fatal("migration did not start")
	}
	m := w.d.migrating[q.W.ID]
	if m == nil || m.clean != 1050 {
		t.Fatalf("migration clean = %+v, want backup-seeded 1050", m)
	}
	if pkv.IsBackup(q.KVID()) {
		t.Error("backup not promoted")
	}
	// Let the copy rounds, the drain, and the remaining decoding (now on
	// the prefill instance) run to completion.
	w.r.s.RunAll()
	if q.Migrating {
		t.Error("migration never drained")
	}
	if !q.Finished() {
		t.Errorf("request did not finish post-migration: %v", q)
	}
	if w.d.decodes[0].KV().Has(q.KVID()) || pkv.Has(q.KVID()) {
		t.Error("KV leaked after post-migration completion")
	}
	// Completion cleanup removes routing entries.
	if len(w.d.decodeAt) != 0 {
		t.Error("decode routing table not cleaned")
	}
}

// TestMigrationAbortedWhenRequestCompletesMidRound: the request finishes
// decoding while a copy round is still on the wire. The next round must
// observe the terminal phase, cancel the migration, and release the
// destination allocation instead of copying a dead request's KV.
func TestMigrationAbortedWhenRequestCompletesMidRound(t *testing.T) {
	w := newWindStateForTest(t)
	q := engine.NewReq(workload.Request{ID: 11, PromptTokens: 4000, OutputTokens: 200})
	q.PrefillDone = 4000
	q.SetGenerated(100)
	q.Phase = engine.PhaseDecoding
	w.startMigration(q, 0, 0.05) // dirty span ≫ drain threshold → copy round in flight
	if !q.Migrating {
		t.Fatal("migration did not start")
	}
	pkv := w.d.ins[w.d.migrating[q.W.ID].dst].KV()
	if !pkv.Has(q.KVID()) {
		t.Fatal("destination not allocated")
	}
	// The request completes while the round's transfer is still in flight.
	q.Phase = engine.PhaseDone
	w.r.s.RunAll()
	if q.Migrating {
		t.Error("Migrating flag survived completion")
	}
	if len(w.d.migrating) != 0 {
		t.Error("migration entry survived completion")
	}
	if pkv.Has(q.KVID()) {
		t.Error("destination allocation leaked after mid-round completion")
	}
}

// TestDrainMigrationRacesDecodeKVEviction: while the bounded tail copies,
// the decode side reclaims the request's blocks (exhaustion-driven
// eviction). The drain callback must not double-release, and the request
// must still resume decoding on the destination.
func TestDrainMigrationRacesDecodeKVEviction(t *testing.T) {
	w := newWindStateForTest(t)
	q := engine.NewReq(workload.Request{ID: 12, PromptTokens: 1000, OutputTokens: 200})
	q.PrefillDone = 1000
	q.SetGenerated(100)
	q.Phase = engine.PhaseDecoding
	w.r.rec.Arrive(q.W.ID, q.W.PromptTokens, q.W.OutputTokens, 0)
	w.r.rec.PrefillStart(q.W.ID, 0)
	w.r.rec.FirstToken(q.W.ID, 0)
	// Backup-seeded so the dirty span is below the drain threshold and the
	// migration goes straight to the drain.
	q.BackupTokens = 1050
	w.backupAt[q.W.ID] = 0
	if err := w.d.prefills[0].KV().AllocateBackup(q.KVID(), 1050); err != nil {
		t.Fatal(err)
	}
	dkv := w.d.decodes[0].KV()
	if err := dkv.Allocate(q.KVID(), q.Ctx()+1); err != nil {
		t.Fatal(err)
	}
	w.d.decodes[0].InsertRunning(q)
	w.startMigration(q, 0, 0.05)
	if q.Phase != engine.PhaseDraining {
		t.Fatalf("phase %v, want immediate drain", q.Phase)
	}
	// Decode-side blocks vanish while the tail is on the wire.
	if err := dkv.Release(q.KVID()); err != nil {
		t.Fatal(err)
	}
	w.r.s.RunAll()
	if q.Migrating || len(w.d.migrating) != 0 {
		t.Error("migration never resolved")
	}
	if !q.Finished() {
		t.Errorf("request did not resume on the destination: %v", q)
	}
	if w.d.prefills[0].KV().Has(q.KVID()) || dkv.Has(q.KVID()) {
		t.Error("KV leaked after drain raced eviction")
	}
}
