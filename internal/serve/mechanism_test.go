package serve

import (
	"testing"

	"windserve/internal/engine"
	"windserve/internal/kvcache"
	"windserve/internal/workload"
)

// bed builds the prefill/decode system cfg describes, with the given
// name prefix and elastic wiring, as the builders wire it, without a
// workload.
func bed(t *testing.T, cfg Config, prefix string, elastic bool) *pd {
	t.Helper()
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newPD(r, prefix, elastic)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAbortMigrationReleasesDestination(t *testing.T) {
	for _, phase := range []engine.Phase{engine.PhaseDone, engine.PhaseSwapped, engine.PhaseWaiting} {
		d := bed(t, cfg13B(t), "", false)
		q := newFlight(workload.Request{ID: 7, PromptTokens: 500, OutputTokens: 50})
		q.PrefillDone = 500
		q.SetGenerated(10)
		q.Migrating = true
		q.Phase = phase
		if err := d.prefills[0].AllocateKV(q, q.Ctx()+1); err != nil {
			t.Fatal(err)
		}
		m := &migration{q: q, src: len(d.prefills), dst: 0}
		fl(q).mig, d.migs = m, append(d.migs, m)
		d.copyRound(m)
		if q.Migrating {
			t.Errorf("phase %v: Migrating flag not cleared", phase)
		}
		if fl(q).mig != nil || len(d.migs) != 0 {
			t.Errorf("phase %v: migration entry not removed", phase)
		}
		if d.prefills[0].KVOf(q) != nil {
			t.Errorf("phase %v: destination allocation leaked", phase)
		}
	}
}

func TestAbortMigrationNotTakenWhileDecoding(t *testing.T) {
	d := bed(t, cfg13B(t), "", false)
	q := newFlight(workload.Request{ID: 8, PromptTokens: 500, OutputTokens: 50})
	q.PrefillDone = 500
	q.SetGenerated(10)
	q.Phase = engine.PhaseDecoding
	m := &migration{q: q, src: len(d.prefills), dst: 0}
	fl(q).mig, d.migs = m, append(d.migs, m)
	d.copyRound(m)
	if fl(q).mig != m || len(d.migs) != 1 || q.Phase != engine.PhaseDecoding {
		t.Fatal("live migration dropped")
	}
}

func TestStartMigrationFailsGracefullyWithoutPrefillKV(t *testing.T) {
	d := bed(t, cfg13B(t), "", false)
	// Fill the prefill instance's KV so the destination allocation fails.
	pkv := d.prefills[0].KV()
	if _, err := pkv.Allocate(new(kvcache.Holder), 999, pkv.FreeTokens()); err != nil {
		t.Fatal(err)
	}
	q := newFlight(workload.Request{ID: 9, PromptTokens: 1000, OutputTokens: 50})
	q.PrefillDone = 1000
	q.SetGenerated(5)
	q.Phase = engine.PhaseDecoding
	d.startMigration(q, 0, 0.05)
	if q.Migrating || fl(q).mig != nil || len(d.migs) != 0 || d.rescheduled != 0 {
		t.Error("migration should not start without destination blocks")
	}
}

func TestStartMigrationUsesBackupDelta(t *testing.T) {
	d := bed(t, cfg13B(t), "", false)
	q := newFlight(workload.Request{ID: 10, PromptTokens: 1000, OutputTokens: 200})
	q.PrefillDone = 1000
	q.SetGenerated(100)
	q.Phase = engine.PhaseDecoding
	// The engine will decode it to completion and report to the recorder.
	d.r.rec.Arrive(q.W.ID, q.W.PromptTokens, q.W.OutputTokens, 0)
	d.r.rec.PrefillStart(q.W.ID, 0)
	d.r.rec.FirstToken(q.W.ID, 0)
	q.BackupTokens = 1050
	fl(q).backupAt = 0
	p := d.prefills[0]
	if _, err := p.KV().AllocateBackup(&q.Holder, q.KVID(), 1050); err != nil {
		t.Fatal(err)
	}
	// Decode-side allocation so the drain path can release it.
	if err := d.decodes[0].AllocateKV(q, q.Ctx()+1); err != nil {
		t.Fatal(err)
	}
	d.decodes[0].InsertRunning(q)
	d.startMigration(q, 0, 0.05)
	if !q.Migrating {
		t.Fatal("migration did not start")
	}
	m := fl(q).mig
	if m == nil || m.clean != 1050 {
		t.Fatalf("migration clean = %+v, want backup-seeded 1050", m)
	}
	if p.KVOf(q).IsBackup() {
		t.Error("backup not promoted")
	}
	// Let the copy rounds, the drain, and the remaining decoding (now on
	// the prefill instance) run to completion.
	d.r.s.RunAll()
	if q.Migrating {
		t.Error("migration never drained")
	}
	if !q.Finished() {
		t.Errorf("request did not finish post-migration: %v", q)
	}
	if d.decodes[0].KVOf(q) != nil || p.KVOf(q) != nil {
		t.Error("KV leaked after post-migration completion")
	}
	// Completion cleanup forgets the placement.
	if f := fl(q); f.pi != noIdx || f.di != noIdx {
		t.Errorf("placement not forgotten: prefill %d, decode %d", f.pi, f.di)
	}
}

// TestMigrationAbortedWhenRequestCompletesMidRound: the request finishes
// decoding while a copy round is still on the wire. The next round must
// observe the terminal phase, cancel the migration, and release the
// destination allocation instead of copying a dead request's KV.
func TestMigrationAbortedWhenRequestCompletesMidRound(t *testing.T) {
	d := bed(t, cfg13B(t), "", false)
	q := newFlight(workload.Request{ID: 11, PromptTokens: 4000, OutputTokens: 200})
	q.PrefillDone = 4000
	q.SetGenerated(100)
	q.Phase = engine.PhaseDecoding
	d.startMigration(q, 0, 0.05) // dirty span ≫ drain threshold → copy round in flight
	if !q.Migrating {
		t.Fatal("migration did not start")
	}
	dst := d.ins[fl(q).mig.dst]
	if dst.KVOf(q) == nil {
		t.Fatal("destination not allocated")
	}
	// The request completes while the round's transfer is still in flight.
	q.Phase = engine.PhaseDone
	d.r.s.RunAll()
	if q.Migrating {
		t.Error("Migrating flag survived completion")
	}
	if fl(q).mig != nil || len(d.migs) != 0 {
		t.Error("migration entry survived completion")
	}
	if dst.KVOf(q) != nil {
		t.Error("destination allocation leaked after mid-round completion")
	}
}

// TestDrainMigrationRacesDecodeKVEviction: while the bounded tail copies,
// the decode side reclaims the request's blocks (exhaustion-driven
// eviction). The drain callback must not double-release, and the request
// must still resume decoding on the destination.
func TestDrainMigrationRacesDecodeKVEviction(t *testing.T) {
	d := bed(t, cfg13B(t), "", false)
	q := newFlight(workload.Request{ID: 12, PromptTokens: 1000, OutputTokens: 200})
	q.PrefillDone = 1000
	q.SetGenerated(100)
	q.Phase = engine.PhaseDecoding
	d.r.rec.Arrive(q.W.ID, q.W.PromptTokens, q.W.OutputTokens, 0)
	d.r.rec.PrefillStart(q.W.ID, 0)
	d.r.rec.FirstToken(q.W.ID, 0)
	// Backup-seeded so the dirty span is below the drain threshold and the
	// migration goes straight to the drain.
	q.BackupTokens = 1050
	fl(q).backupAt = 0
	if _, err := d.prefills[0].KV().AllocateBackup(&q.Holder, q.KVID(), 1050); err != nil {
		t.Fatal(err)
	}
	dec := d.decodes[0]
	if err := dec.AllocateKV(q, q.Ctx()+1); err != nil {
		t.Fatal(err)
	}
	d.decodes[0].InsertRunning(q)
	d.startMigration(q, 0, 0.05)
	if q.Phase != engine.PhaseDraining {
		t.Fatalf("phase %v, want immediate drain", q.Phase)
	}
	// Decode-side blocks vanish while the tail is on the wire.
	if err := dec.KVOf(q).Release(); err != nil {
		t.Fatal(err)
	}
	d.r.s.RunAll()
	if q.Migrating || fl(q).mig != nil || len(d.migs) != 0 {
		t.Error("migration never resolved")
	}
	if !q.Finished() {
		t.Errorf("request did not resume on the destination: %v", q)
	}
	if d.prefills[0].KVOf(q) != nil || dec.KVOf(q) != nil {
		t.Error("KV leaked after drain raced eviction")
	}
}
