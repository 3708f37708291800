package serve

import (
	"fmt"

	"windserve/internal/cluster"
	"windserve/internal/engine"
	"windserve/internal/sim"
	"windserve/internal/trace"
	"windserve/internal/workload"
	"windserve/internal/xfer"
)

// RunDistServe simulates the static phase-disaggregated baseline: prefill
// and decode instances with FCFS local schedulers and no cross-instance
// coordination (§2.2). After a prompt prefills, its KV cache crosses the
// interconnect serially (blocking that request's decode start), the
// prefill-side copy is dropped, and the request queues for decode
// admission — the behaviors whose costs Fig. 1 and Fig. 3 measure.
//
// With multiple instances (Config.NumPrefill/NumDecode), requests are
// routed round-robin — DistServe's orchestration is static.
func RunDistServe(cfg Config, reqs []workload.Request) (*Result, error) {
	return RunDistServeFrom(cfg, workload.NewSliceSource(reqs))
}

// RunDistServeFrom is RunDistServe fed from a pull-based request source:
// arrivals are scheduled one at a time as the stream is consumed, so the
// trace is never materialized.
func RunDistServeFrom(cfg Config, src workload.Source) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	cfg = r.cfg

	d, err := newPD(r, cfg, pdHooks{})
	if err != nil {
		return nil, fmt.Errorf("serve: planning DistServe: %w", err)
	}
	r.queueDepth = d.queueDepth
	r.onAbort = d.abort
	if err := installPDFaults(r, d); err != nil {
		return nil, err
	}
	r.scheduleStream(src, func(q *engine.Req) {
		d.prefillRR(q)
	})
	res, err := r.run("DistServe")
	if err != nil {
		return nil, err
	}
	d.finalize(res)
	return res, nil
}

// pd is the shared prefill+decode cluster both DistServe and WindServe
// build on. DistServe uses it as-is with round-robin routing; WindServe
// attaches the Global Scheduler.
type pd struct {
	r   *runner
	cfg Config
	ph  pdHooks
	// ins holds every physical instance: the home prefills at 0..P-1, then
	// the home decodes at P..P+D-1. prefills and decodes are the two
	// sub-slices ins[:P] and ins[P:].
	ins               []*engine.Instance
	prefills, decodes []*engine.Instance
	// link[a][b] carries KV from physical instance a to physical instance
	// b: post-prefill transfers prefill→decode, migrations and backups
	// decode→prefill. The diagonal is nil. Static wiring fills only the
	// cross-role entries; elastic wiring also fills the same-role ones,
	// which flipped roles route through.
	link [][]*xfer.Link

	// flipped[k] marks physical instance k acting against its home role;
	// nil unless ph.elastic. Routing works in two index spaces over the
	// same instances: a prefill-space index is the physical index, and
	// decode-space j names physical (j+P) % (P+D), so home decodes come
	// first. With elastic wiring off the spaces shrink to [0,P) and
	// [0,D) — the static layout. prefillAt holds prefill-space indices,
	// decodeAt decode-space indices.
	flipped []bool

	// migrating holds every live migration of a running request (see
	// migration.go), WindServe's and a flip's alike.
	migrating map[uint64]*migration

	// prefillAt and decodeAt remember each request's instances, so
	// transfers pick the right link and releases hit the right manager.
	prefillAt map[uint64]int
	decodeAt  map[uint64]int

	// transferPending are prefilled requests waiting for decode KV.
	transferPending []*engine.Req

	rr struct{ prefill, decode int }

	// stats
	asyncXfers int
	flips      int
}

// pdHooks lets WindServe inject policy into the shared wiring, and a
// fleet replica name and widen it.
type pdHooks struct {
	// prefix prepends every instance, link, and trace name — fleet
	// replicas use "r<i>/" so names stay unique on a shared simulator.
	prefix string
	// elastic wires the cluster for runtime role flipping: the link
	// matrix between physical instances gains its same-role off-diagonal
	// entries (static wiring has only the cross-role ones), each instance
	// gets a flipped-role bit, and the drain/migrate protocol behind
	// Replica.Flip is enabled. Only fleet replicas set it; the flip
	// decisions themselves come from the fleet's role controller.
	elastic bool
	// onPrefillStart fires at a prefill instance (async transfers).
	onPrefillStart func(q *engine.Req)
	// transfer overrides the post-prefill transfer path. Return true if
	// handled; false falls back to the serial DistServe path.
	transfer func(q *engine.Req) bool
	// onDecodeIterEnd fires after each pass of decode instance j.
	onDecodeIterEnd func(j int)
	// onComplete observes completions on any instance (backup cleanup).
	onComplete func(q *engine.Req)
	// onTransfer observes every completed prefill→decode KV copy (payload
	// bytes and wall time including link queuing) — the Profiler's
	// transfer-rate feedback.
	onTransfer func(bytes float64, elapsed sim.Duration)
	// crash recovers the live orphans of crashed physical instance k
	// (WindServe's backup-aware path). Nil re-prefills each from scratch.
	crash func(k int, orphans []*engine.Req)
	// decodeSBD enables the second stream on decode instances.
	decodeSBD bool
	// decodeAllowPrefill lets decode instances run prefill in their main
	// stream (WindServe-no-split ablation).
	decodeAllowPrefill bool
}

func newPD(r *runner, cfg Config, ph pdHooks) (*pd, error) {
	np := cfg.NumPrefill
	specs := make([]cluster.InstanceSpec, 0, np+cfg.NumDecode)
	for i := 0; i < np; i++ {
		specs = append(specs, cluster.InstanceSpec{Role: cluster.RolePrefill, Place: cfg.PrefillPlace})
	}
	for i := 0; i < cfg.NumDecode; i++ {
		specs = append(specs, cluster.InstanceSpec{Role: cluster.RoleDecode, Place: cfg.DecodePlace})
	}
	asg, err := cluster.Plan(cfg.Topo, cfg.Model, cfg.Params, reserveFrac, specs...)
	if err != nil {
		return nil, err
	}

	d := &pd{
		r: r, cfg: cfg, ph: ph,
		migrating: make(map[uint64]*migration),
		prefillAt: make(map[uint64]int),
		decodeAt:  make(map[uint64]int),
	}
	if ph.elastic {
		d.flipped = make([]bool, len(asg))
	}
	px := ph.prefix
	// home names physical instance k by role and home index: p0, d1, ...
	home := func(k int) string {
		if k < np {
			return fmt.Sprintf("p%d", k)
		}
		return fmt.Sprintf("d%d", k-np)
	}
	d.link = make([][]*xfer.Link, len(asg))
	for a := range d.link {
		d.link[a] = make([]*xfer.Link, len(asg))
		for b := range d.link[a] {
			if a == b || (!ph.elastic && (a < np) == (b < np)) {
				continue
			}
			spec := cluster.TransferLink(cfg.Topo, asg[a], asg[b])
			d.link[a][b] = xfer.NewLink(r.s, px+home(a)+"-"+home(b), spec, xfer.DefaultEfficiency)
		}
	}

	for k, a := range asg {
		role, idx, hooks := "prefill", k, d.prefillHooks()
		ec := engine.Config{AllowPrefill: true}
		if k >= np {
			role, idx, hooks = "decode", k-np, d.decodeHooks(k-np)
			ec = engine.Config{AllowPrefill: ph.decodeAllowPrefill, SBD: ph.decodeSBD}
		}
		ec.Name = fmt.Sprintf("%s%s-%d", px, role, idx)
		ins, err := r.newInstance(a, ec, fmt.Sprintf("%s%s%d-host", px, role, idx), hooks)
		if err != nil {
			return nil, err
		}
		d.ins = append(d.ins, ins)
	}
	d.prefills, d.decodes = d.ins[:np], d.ins[np:]
	return d, nil
}

// prefillHooks wires a home prefill instance.
func (d *pd) prefillHooks() engine.Hooks {
	r, ph, elastic := d.r, d.ph, d.ph.elastic
	hooks := r.recorderHooks()
	hooks.OnPrefillStart = func(q *engine.Req) {
		r.led.PrefillStart(q.W.ID, r.s.Now())
		if ph.onPrefillStart != nil {
			ph.onPrefillStart(q)
		}
	}
	hooks.OnPrefillDone = func(q *engine.Req) {
		if ph.transfer != nil && ph.transfer(q) {
			return
		}
		d.serialTransfer(q)
	}
	if ph.onComplete != nil || elastic {
		base := hooks.OnComplete
		hooks.OnComplete = func(q *engine.Req) {
			base(q)
			if ph.onComplete != nil {
				ph.onComplete(q)
			}
			if elastic {
				// A home prefill acting as decode retires streams here.
				delete(d.decodeAt, q.W.ID)
				delete(d.prefillAt, q.W.ID)
				d.retryTransfers()
			}
		}
	}
	if elastic {
		hooks.OnIterationEnd = func() {
			d.retryTransfers()
		}
		hooks.OnEvicted = d.recompute
	}
	return hooks
}

// decodeHooks wires home decode instance j.
func (d *pd) decodeHooks(j int) engine.Hooks {
	ph := d.ph
	hooks := d.r.recorderHooks()
	hooks.OnPrefillDone = func(q *engine.Req) {
		if ph.elastic && !q.Assist {
			// Main-stream prefill on a home decode acting as prefill:
			// the KV crosses to an acting decode like any other.
			if ph.transfer != nil && ph.transfer(q) {
				return
			}
			d.serialTransfer(q)
			return
		}
		// Only reachable for dispatched assists (WindServe): the first
		// token was produced here and the KV is already local.
		d.decodes[j].AdmitDecode(q)
	}
	hooks.OnIterationEnd = func() {
		d.retryTransfers()
		if ph.onDecodeIterEnd != nil {
			ph.onDecodeIterEnd(j)
		}
	}
	hooks.OnEvicted = d.recompute
	base := hooks.OnComplete
	hooks.OnComplete = func(q *engine.Req) {
		base(q)
		if ph.onComplete != nil {
			ph.onComplete(q)
		}
		delete(d.decodeAt, q.W.ID)
		delete(d.prefillAt, q.W.ID)
		d.retryTransfers()
	}
	return hooks
}

// recompute re-routes a request its acting decode evicted for lack of
// swap space: it prefills again from scratch on an acting prefill. This
// is recompute eviction, not a crash restart — the engine already reset
// the prefill progress and Generated stands.
func (d *pd) recompute(q *engine.Req) {
	q.Assist = false
	delete(d.decodeAt, q.W.ID)
	d.prefillRR(q)
}

// --- Index spaces (elastic role flipping) -------------------------------
//
// With elastic wiring off every helper collapses to the static layout: pSpace
// is len(prefills), dSpace is len(decodes), flipped is nil (so every
// instance acts its home role), and pdLink only reaches the cross-role
// links — the exact wiring the static systems have always had.

// pSpace is the prefill-space size: home prefills, then home decodes.
func (d *pd) pSpace() int {
	if d.flipped == nil {
		return len(d.prefills)
	}
	return len(d.ins)
}

// dSpace is the decode-space size: home decodes, then home prefills.
func (d *pd) dSpace() int {
	if d.flipped == nil {
		return len(d.decodes)
	}
	return len(d.ins)
}

// dPhys maps a decode-space index to its physical index.
func (d *pd) dPhys(j int) int { return (j + len(d.prefills)) % len(d.ins) }

// pIns resolves a prefill-space index to its physical instance.
func (d *pd) pIns(i int) *engine.Instance { return d.ins[i] }

// dIns resolves a decode-space index to its physical instance.
func (d *pd) dIns(j int) *engine.Instance { return d.ins[d.dPhys(j)] }

// actingPrefill reports whether prefill-space (physical) index i
// currently serves the prefill role.
func (d *pd) actingPrefill(i int) bool {
	return (i < len(d.prefills)) != (d.flipped != nil && d.flipped[i])
}

// actingDecode reports whether decode-space index j currently serves the
// decode role.
func (d *pd) actingDecode(j int) bool { return !d.actingPrefill(d.dPhys(j)) }

// pdLink returns the link from prefill-space i to decode-space j; nil
// when both indices name the same physical instance (the transfer is
// local).
func (d *pd) pdLink(i, j int) *xfer.Link { return d.link[i][d.dPhys(j)] }

// dpLink returns the link from decode-space j to prefill-space i
// (migrations and backups); nil on the same physical instance.
func (d *pd) dpLink(j, i int) *xfer.Link { return d.link[d.dPhys(j)][i] }

// prefillRR enqueues a request on the next live acting-prefill instance
// round-robin. With every instance down the request parks on the
// round-robin cursor's queue; a later Restore drains it.
func (d *pd) prefillRR(q *engine.Req) {
	n := d.pSpace()
	i := -1
	for k := 0; k < n; k++ {
		c := (d.rr.prefill + k) % n
		if d.pIns(c).Down() || !d.actingPrefill(c) {
			continue
		}
		i = c
		break
	}
	if i < 0 {
		// Every acting prefill is down: park on the first acting one (a
		// later Restore drains it) — with elastic wiring off that is
		// exactly the historical rr.prefill%n fallback, since every index
		// acts.
		for k := 0; k < n; k++ {
			c := (d.rr.prefill + k) % n
			if d.actingPrefill(c) {
				i = c
				break
			}
		}
	}
	if i < 0 {
		i = d.rr.prefill % n
	}
	d.rr.prefill = i + 1
	d.prefillAt[q.W.ID] = i
	d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, d.pIns(i).Name(), "round-robin")
	d.pIns(i).EnqueuePrefill(q)
}

// prefillIdx returns the prefill-space index a request belongs to (0 if
// it was never routed — defensive).
func (d *pd) prefillIdx(q *engine.Req) int { return d.prefillAt[q.W.ID] }

// pickDecode returns the live acting-decode index with the most free KV
// tokens, or -1 when every decode instance is down.
func (d *pd) pickDecode() int {
	best := -1
	for j := 0; j < d.dSpace(); j++ {
		if d.dIns(j).Down() || !d.actingDecode(j) {
			continue
		}
		if best < 0 || d.dIns(j).FreeKVTokens() > d.dIns(best).FreeKVTokens() {
			best = j
		}
	}
	return best
}

// kvBytes is the payload size of a request's KV cache at a token count.
func (d *pd) kvBytes(tokens int) float64 {
	return float64(tokens) * d.cfg.Model.KVBytesPerToken()
}

// nominalP2DRate is the mean healthy prefill→decode link throughput in
// bytes/second — the Profiler's transfer-rate warm start, so the very
// first dispatch already prices the KV copy a prefill-side placement
// implies.
func (d *pd) nominalP2DRate() float64 {
	np := len(d.prefills)
	var sum float64
	for _, row := range d.link[:np] {
		for _, lk := range row[np:] {
			sum += lk.NominalRate()
		}
	}
	return sum / float64(np*len(d.decodes))
}

// serialTransfer is DistServe's path: after prefill, allocate at a decode
// instance (or queue until blocks free), then occupy the link for the
// full payload; only then may decoding start. A new request queues behind
// anything already waiting — FCFS holds even when blocks freed since the
// last retry would let the newcomer allocate immediately.
func (d *pd) serialTransfer(q *engine.Req) {
	q.Phase = engine.PhaseTransferring
	if len(d.transferPending) > 0 || !d.tryStartTransfer(q) {
		d.transferPending = append(d.transferPending, q)
	}
}

func (d *pd) tryStartTransfer(q *engine.Req) bool {
	if q.Phase == engine.PhaseAborted {
		return true // cancelled while queued for transfer; just drop it
	}
	// Static round-robin for DistServe-style transfers, but skip decode
	// instances that are down, not acting the decode role, or unable to
	// hold the request right now.
	n := d.dSpace()
	i := d.prefillIdx(q)
	for k := 0; k < n; k++ {
		j := (d.rr.decode + k) % n
		if d.dIns(j).Down() || !d.actingDecode(j) {
			continue
		}
		if d.pIns(i) == d.dIns(j) {
			// The instance that prefilled this request flipped to decode
			// before the transfer started: the KV is already resident, so
			// the stream decodes in place with no copy at all.
			if !d.dIns(j).KV().Has(q.KVID()) {
				continue
			}
			d.rr.decode = (j + 1) % n
			d.decodeAt[q.W.ID] = j
			d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, d.dIns(j).Name(), "transfer-local")
			d.dIns(j).AdmitDecode(q)
			return true
		}
		if d.dIns(j).KV().Allocate(q.KVID(), q.Ctx()+1) == nil {
			d.rr.decode = (j + 1) % n
			d.decodeAt[q.W.ID] = j
			d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, d.dIns(j).Name(), "transfer-round-robin")
			start := d.r.s.Now()
			bytes := d.kvBytes(q.Ctx())
			lk := d.pdLink(i, j)
			lk.Transfer(bytes, func() {
				d.observeTransfer(bytes, start)
				if d.cfg.Tracer != nil {
					d.cfg.Tracer.Add("link "+lk.Name(), trace.KindKVTransfer, start, d.r.s.Now(),
						fmt.Sprintf("req%d %d tokens", q.W.ID, q.Ctx()))
				}
				d.pIns(i).ReleaseKV(q)
				if q.Phase == engine.PhaseAborted {
					d.releaseAt(d.dIns(j), q)
					return
				}
				if d.dIns(j).Down() || !d.dIns(j).KV().Has(q.KVID()) {
					// The target crashed while the payload was in flight — its
					// KV reset dropped the allocation — and may even have
					// restored already with empty blocks. Re-route through the
					// serial path to an instance holding a fresh allocation.
					delete(d.decodeAt, q.W.ID)
					d.serialTransfer(q)
					return
				}
				if d.ph.elastic && !d.actingDecode(j) {
					// The target flipped to prefill while the payload was in
					// flight; hand the stream to a current acting decode
					// instead of loading the fresh prefill role with it.
					d.releaseAt(d.dIns(j), q)
					delete(d.decodeAt, q.W.ID)
					d.serialTransfer(q)
					return
				}
				d.dIns(j).AdmitDecode(q)
			})
			return true
		}
	}
	return false
}

// observeTransfer feeds a completed prefill→decode copy back to the hooks
// (Profiler transfer-rate learning).
func (d *pd) observeTransfer(bytes float64, start sim.Time) {
	if d.ph.onTransfer != nil {
		d.ph.onTransfer(bytes, d.r.s.Now().Sub(start))
	}
}

// releaseAt frees a request's KV on one instance if present, re-kicking it.
func (d *pd) releaseAt(ins *engine.Instance, q *engine.Req) {
	if ins.KV().Has(q.KVID()) {
		_ = ins.KV().Release(q.KVID())
		ins.Kick()
	}
}

// retryTransfers re-attempts queued transfers FCFS whenever decode blocks
// may have freed.
func (d *pd) retryTransfers() {
	for len(d.transferPending) > 0 {
		if !d.tryStartTransfer(d.transferPending[0]) {
			return
		}
		d.transferPending = d.transferPending[1:]
	}
}

// queueDepth is the admission-control signal: requests waiting for
// prefill anywhere, plus prefilled requests stuck waiting for decode KV.
func (d *pd) queueDepth() int {
	n := len(d.transferPending)
	for _, ins := range d.prefills {
		n += ins.NumQueued()
	}
	for _, ins := range d.decodes {
		n += ins.NumQueued()
	}
	return n
}

// abort scrubs a terminated request (Phase already PhaseAborted) from the
// cluster: both owning instances, its migration and the transfer queue.
// KV held on a post-prefill transfer in flight is released by that
// transfer's own callback.
func (d *pd) abort(q *engine.Req) {
	if i, ok := d.prefillAt[q.W.ID]; ok {
		d.pIns(i).Abort(q)
		delete(d.prefillAt, q.W.ID)
	}
	if j, ok := d.decodeAt[q.W.ID]; ok {
		d.dIns(j).Abort(q)
		delete(d.decodeAt, q.W.ID)
	}
	if m, ok := d.migrating[q.W.ID]; ok {
		d.drop(m)
	}
	for i, p := range d.transferPending {
		if p == q {
			d.transferPending = append(d.transferPending[:i], d.transferPending[i+1:]...)
			break
		}
	}
}

// degradeLinks scales every cross-instance link to frac of nominal
// bandwidth (1 restores). Host swap links are instance-local PCIe and stay
// nominal.
func (d *pd) degradeLinks(frac float64) {
	for _, row := range d.link {
		for _, lk := range row {
			if lk != nil {
				lk.SetDegradation(frac)
			}
		}
	}
}

// crash takes physical instance k down, drops the migrations that touch
// it, and recovers its live orphans: the requests queued, running or
// swapped there, the prefilled ones waiting in transferPending on KV that
// died with it (pulled out of the queue), and the paused migrations it
// was the source of. Recovery goes through the system's hook when it has
// one, else re-prefills each from scratch on a survivor (DistServe keeps
// no backups to restore from).
func (d *pd) crash(k int) {
	orphans := d.ins[k].Crash()
	keep := d.transferPending[:0]
	for _, q := range d.transferPending {
		if d.prefillAt[q.W.ID] == k {
			orphans = append(orphans, q)
		} else {
			keep = append(keep, q)
		}
	}
	d.transferPending = keep
	orphans = liveOrphans(append(orphans, d.dropMigrations(k)...))
	if d.ph.crash != nil {
		d.ph.crash(k, orphans)
		return
	}
	for _, q := range orphans {
		d.reprefill(q, d.prefillRR)
	}
}

// reprefill forgets a request's placement and progress and routes it back
// in as a fresh prefill — scratch recovery for KV lost to a crash.
func (d *pd) reprefill(q *engine.Req, route func(*engine.Req)) {
	delete(d.prefillAt, q.W.ID)
	delete(d.decodeAt, q.W.ID)
	d.r.restart(q, route)
}

// finalize fills the pd-specific parts of a result, aggregating across
// instances. Traffic sums the cross-role links row by row (prefill→decode,
// then decode→prefill), then the same-role ones an elastic cluster adds:
// float addition is order-sensitive, and this is the order the totals
// have always been taken in. Migration traffic is every link whose source
// is a home decode.
func (d *pd) finalize(res *Result) {
	np := len(d.prefills)
	var pcu, pbu, dcu, dbu float64
	for k, ins := range d.ins {
		kv, cu, bu := &res.PrefillKV, &pcu, &pbu
		if k >= np {
			kv, cu, bu = &res.DecodeKV, &dcu, &dbu
		}
		res.fold(ins, kv, cu, bu)
	}
	res.PrefillComputeUtil = pcu / float64(np)
	res.PrefillBWUtil = pbu / float64(np)
	res.DecodeComputeUtil = dcu / float64(len(d.decodes))
	res.DecodeBWUtil = dbu / float64(len(d.decodes))
	for _, sameRole := range []bool{false, true} {
		for a, row := range d.link {
			for b, lk := range row {
				if lk == nil || ((a < np) == (b < np)) != sameRole {
					continue
				}
				gb := lk.BytesMoved / 1e9
				res.TransferGB += gb
				if a >= np {
					res.MigrationGB += gb
				}
			}
		}
	}
	res.AsyncXfers = d.asyncXfers
}
