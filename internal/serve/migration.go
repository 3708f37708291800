package serve

import (
	"fmt"
	"slices"
	"sort"

	"windserve/internal/engine"
	"windserve/internal/sched"
	"windserve/internal/sim"
	"windserve/internal/trace"
	"windserve/internal/xfer"
)

// Live migration (paper §3.3) moves a running decode request's KV to
// another instance over the link mesh. WindServe's Dynamic Rescheduling
// and an elastic flip draining its batch share this one protocol; each
// keeps its own policy for picking the request and the destination. A
// migration takes up to three steps:
//
//   - copy rounds (WindServe only): the span not yet at the destination
//     crosses the link while the request keeps decoding at its source, and
//     shrinks each round toward the drain threshold;
//   - drain: the request leaves its source's running batch, paused in
//     PhaseDraining, while the remaining tail copies; a flip starts here,
//     a stop-and-copy of the whole context;
//   - land: the source frees its copy and decoding resumes at the
//     destination.
//
// pd.migs holds every live migration, and each has exactly one pending
// link callback, which acts only while its request's flight still points
// at it. pd.abort and pd.crash drop the migrations that touch an aborted
// request or a crashed instance (Replica.Crash clears them all), which
// leaves their callbacks stale. A request that completes mid-copy-round
// keeps its migration until the next callback drops it, so pd.migs, not
// runner.live, is where a crash finds every migration.

// migration is one running request's move between two instances.
type migration struct {
	q *engine.Req
	// src and dst are physical instance indices.
	src, dst int
	// at is m's index in pd.migs.
	at int
	// clean counts context tokens already resident at dst.
	clean int
	// rec is WindServe's decision-log entry (nil for a flip or with
	// logging off); every copy appends a round to it.
	rec *sched.RescheduleRecord
}

// migrate registers m and starts it: with copy rounds while the request
// keeps decoding, or straight at the drain.
func (d *pd) migrate(m *migration, rounds bool) {
	m.q.Migrating = true
	fl(m.q).mig = m
	m.at, d.migs = len(d.migs), append(d.migs, m)
	if rounds {
		d.copyRound(m)
	} else {
		d.drain(m)
	}
}

// copyRound copies the span of m's context not yet at the destination
// while the request keeps decoding, or drains once that span is within
// the drain threshold. A request that finished or was preempted at its
// source since the last round drops the migration instead.
func (d *pd) copyRound(m *migration) {
	q := m.q
	if q.Phase == engine.PhaseDone || q.Phase == engine.PhaseSwapped || q.Phase == engine.PhaseWaiting {
		d.drop(m)
		return
	}
	dirty := q.Ctx() - m.clean
	if dirty <= d.cfg.Wind.Resched.DrainThresholdTokens {
		d.drain(m)
		return
	}
	target, start, lk := q.Ctx(), d.r.s.Now(), d.link[m.src][m.dst]
	lk.Transfer(d.kvBytes(dirty), func() {
		if fl(q).mig != m {
			return
		}
		d.logRound(m, "copy", lk, start, dirty)
		m.clean = target
		d.copyRound(m)
	})
}

// drain pauses m's request and copies the tail; the copy's callback is
// the one place a migrated request lands.
func (d *pd) drain(m *migration) {
	q := m.q
	d.ins[m.src].RemoveRunning(q)
	q.Phase = engine.PhaseDraining
	dirty, start, lk := q.Ctx()-m.clean, d.r.s.Now(), d.link[m.src][m.dst]
	lk.Transfer(d.kvBytes(dirty), func() {
		if fl(q).mig != m {
			return
		}
		d.logRound(m, "drain", lk, start, dirty)
		if m.rec != nil {
			m.rec.Outcome = "migrated"
		}
		d.land(m)
	})
}

// land resumes m's request at its destination: the source frees its copy,
// the flight records the destination under its acting role, and the
// destination's allocation catches up with the tokens decoded during the
// copy rounds (the engine's own growth path recovers any shortfall).
func (d *pd) land(m *migration) {
	q, f := m.q, fl(m.q)
	d.end(m)
	d.releaseAt(d.ins[m.src], q)
	if d.actingPrefill(m.dst) {
		f.pi, f.di = m.dst, noIdx
	} else {
		f.di = (m.dst + len(d.decodes)) % len(d.ins) // its decode-space index
	}
	dst := d.ins[m.dst]
	_ = dst.KVOf(q).Grow(q.Ctx() + 1)
	q.BackupTokens = 0
	dst.InsertRunning(q)
}

// logRound traces one completed copy of m and appends it to m's decision
// record.
func (d *pd) logRound(m *migration, kind string, lk *xfer.Link, start sim.Time, tokens int) {
	now := d.r.s.Now()
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Add("link "+lk.Name(), trace.KindMigration, start, now,
			fmt.Sprintf("req%d %s %d tokens", m.q.W.ID, kind, tokens))
	}
	if m.rec != nil {
		m.rec.Rounds = append(m.rec.Rounds, sched.CopyRound{Kind: kind, Start: start, End: now, Tokens: tokens})
	}
}

// end unregisters m, which leaves its pending callback stale. The last
// migration takes m's slot in pd.migs, whose order nothing reads.
func (d *pd) end(m *migration) {
	m.q.Migrating, fl(m.q).mig = false, nil
	n := len(d.migs) - 1
	last := d.migs[n]
	d.migs[m.at], last.at = last, m.at
	d.migs[n], d.migs = nil, d.migs[:n]
}

// drop abandons m: it ends, its decision record reads "dead", and the
// destination frees what it holds for the request.
func (d *pd) drop(m *migration) {
	d.end(m)
	if m.rec != nil {
		m.rec.Outcome = "dead"
	}
	d.releaseAt(d.ins[m.dst], m.q)
}

// dropMigrations drops every migration from or to crashed instance k, in
// ID order. A request still decoding at its source carries on there, or
// is one of the source's own orphans. A paused one resumes at its source
// when the source is up and holds its KV; otherwise it is returned for
// orphan recovery.
func (d *pd) dropMigrations(k int) []*engine.Req {
	migs := slices.Clone(d.migs)
	sort.Slice(migs, func(a, b int) bool { return migs[a].q.W.ID < migs[b].q.W.ID })
	var orphans []*engine.Req
	for _, m := range migs {
		if m.src != k && m.dst != k {
			continue
		}
		d.drop(m)
		if m.q.Phase != engine.PhaseDraining {
			continue
		}
		if src := d.ins[m.src]; !src.Down() && src.KVOf(m.q) != nil {
			src.InsertRunning(m.q)
		} else {
			orphans = append(orphans, m.q)
		}
	}
	return orphans
}
