package serve

import (
	"fmt"

	"windserve/internal/cluster"
	"windserve/internal/engine"
	"windserve/internal/sched"
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
// DistServe is the prefill/decode system with none of WindServe's
// mechanisms: with multiple instances (Config.NumPrefill/NumDecode),
// requests are routed round-robin — DistServe's orchestration is static.
func RunDistServe(cfg Config, reqs []workload.Request) (*Result, error) {
	return RunDistServeFrom(cfg, workload.NewSliceSource(reqs))
}

// RunDistServeFrom is RunDistServe fed from a pull-based request source:
// arrivals are scheduled one at a time as the stream is consumed, so the
// trace is never materialized.
func RunDistServeFrom(cfg Config, src workload.Source) (*Result, error) {
	return RunWindServeFrom(withoutMechanisms(cfg), src)
}

// withoutMechanisms turns all five of WindServe's mechanisms off: the
// empty set, which is DistServe.
func withoutMechanisms(cfg Config) Config {
	w := &cfg.Wind
	w.DisableSBD, w.DisableResched, w.DisableDispatch, w.DisableAsyncTransfer, w.DisableBackup = true, true, true, true, true
	return cfg
}

// pd is the one prefill/decode system. DistServe is pd with every
// WindServe mechanism off (Config.Wind); each mechanism's method returns
// early when its Disable* flag is set.
type pd struct {
	r   *runner
	cfg Config
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
	// nil unless the cluster is wired elastic. Routing works in two index
	// spaces over the same instances: a prefill-space index is the
	// physical index, and decode-space j names physical (j+P) % (P+D), so
	// home decodes come first. With elastic wiring off the spaces shrink
	// to [0,P) and [0,D) — the static layout. A flight's pi is a
	// prefill-space index and its di a decode-space index.
	flipped []bool

	// migs holds every live migration (see migration.go), WindServe's and
	// a flip's alike, in no particular order.
	migs []*migration

	// transferPending are prefilled requests waiting for decode KV.
	transferPending []*engine.Req

	// coord is the Global Scheduler: its Profiler prices Algorithm 1's
	// candidates and its Coordinator decides. Nil with dispatch off, its
	// only reader.
	coord *sched.Coordinator

	// asyncSeq stamps the transfers overlapped with prefill.
	asyncSeq uint64

	// copies pools the records of KV copies not on a link (see kvCopy);
	// serialDone, asyncDone and backupDone are d.finishSerial,
	// d.finishAsyncCopy and d.finishBackup, bound once.
	copies                            []*kvCopy
	serialDone, asyncDone, backupDone func(kvCopy)

	rr struct{ prefill, decode int }

	// stats
	asyncXfers, flips                int
	dispatched, rescheduled, backups int
}

// newPD plans and wires the cluster r.cfg describes and makes it r's
// system. prefix prepends every instance, link, and trace name — fleet
// replicas use "r<i>/" so names stay unique on a shared simulator.
// elastic wires the cluster for runtime role flipping: the link matrix
// between physical instances gains its same-role off-diagonal entries,
// each instance gets a flipped-role bit, and the drain/migrate protocol
// behind Replica.Flip is enabled. Only fleet replicas set it; the flip
// decisions themselves come from the fleet's role controller.
func newPD(r *runner, prefix string, elastic bool) (*pd, error) {
	cfg := r.cfg
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

	d := &pd{r: r, cfg: cfg}
	d.serialDone, d.asyncDone, d.backupDone = d.finishSerial, d.finishAsyncCopy, d.finishBackup
	if elastic {
		d.flipped = make([]bool, len(asg))
	}
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
			if a == b || (!elastic && (a < np) == (b < np)) {
				continue
			}
			spec := cluster.TransferLink(cfg.Topo, asg[a], asg[b])
			d.link[a][b] = xfer.NewLink(r.s, prefix+home(a)+"-"+home(b), spec, xfer.DefaultEfficiency)
		}
	}

	for k, a := range asg {
		role, idx, hooks := "prefill", k, d.prefillHooks()
		ec := engine.Config{AllowPrefill: true}
		if k >= np {
			// Without SBD a dispatched prefill joins the decode
			// instance's main stream (WindServe-no-split).
			role, idx, hooks = "decode", k-np, d.decodeHooks(k-np)
			ec = engine.Config{AllowPrefill: cfg.Wind.DisableSBD, SBD: !cfg.Wind.DisableSBD}
		}
		ec.Name = fmt.Sprintf("%s%s-%d", prefix, role, idx)
		ins, err := r.newInstance(a, ec, fmt.Sprintf("%s%s%d-host", prefix, role, idx), hooks)
		if err != nil {
			return nil, err
		}
		d.ins = append(d.ins, ins)
	}
	d.prefills, d.decodes = d.ins[:np], d.ins[np:]
	if !cfg.Wind.DisableDispatch {
		if err := d.startScheduler(); err != nil {
			return nil, err
		}
	}
	r.queueDepth, r.onAbort = d.queueDepth, d.abort
	return d, nil
}

// prefillHooks wires a home prefill instance.
func (d *pd) prefillHooks() engine.Hooks {
	r, elastic := d.r, d.flipped != nil
	hooks := r.recorderHooks()
	hooks.OnPrefillStart = func(q *engine.Req) {
		r.led.PrefillStart(q.W.ID, r.s.Now())
		d.maybeStartAsyncTransfer(q)
	}
	hooks.OnPrefillDone = d.transfer
	base := hooks.OnComplete
	hooks.OnComplete = func(q *engine.Req) {
		base(q)
		d.forget(q)
		if elastic {
			// A home prefill acting as decode freed decode KV.
			d.retryTransfers()
		}
	}
	if elastic {
		hooks.OnIterationEnd = d.retryTransfers
		hooks.OnEvicted = d.recompute
	}
	return hooks
}

// decodeHooks wires home decode instance j.
func (d *pd) decodeHooks(j int) engine.Hooks {
	elastic := d.flipped != nil
	hooks := d.r.recorderHooks()
	hooks.OnPrefillDone = func(q *engine.Req) {
		if elastic && !q.Assist {
			// Main-stream prefill on a home decode acting as prefill:
			// the KV crosses to an acting decode like any other.
			d.transfer(q)
			return
		}
		// Only reachable for dispatched assists (WindServe): the first
		// token was produced here and the KV is already local.
		d.decodes[j].AdmitDecode(q)
	}
	hooks.OnIterationEnd = func() {
		d.retryTransfers()
		d.onDecodeIterEnd(j)
	}
	hooks.OnEvicted = d.recompute
	base := hooks.OnComplete
	hooks.OnComplete = func(q *engine.Req) {
		base(q)
		d.forget(q)
		d.retryTransfers()
	}
	return hooks
}

// transfer moves a prefilled request's KV to decode: an async transfer
// completes its handoff once its copy has landed too, anything else
// takes the serial path.
func (d *pd) transfer(q *engine.Req) {
	f := fl(q)
	if f.async.stamp == 0 {
		d.serialTransfer(q)
		return
	}
	f.async.prefillDone = true
	d.maybeFinishAsync(q)
}

// recompute re-routes a request its acting decode evicted for lack of
// swap space: it prefills again from scratch on an acting prefill. This
// is recompute eviction, not a crash restart — the engine already reset
// the prefill progress and Generated stands.
func (d *pd) recompute(q *engine.Req) {
	q.Assist = false
	fl(q).di = noIdx
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
	fl(q).pi = i
	d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, d.pIns(i).Name(), "round-robin")
	d.pIns(i).EnqueuePrefill(q)
}

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
	i := fl(q).pi
	for k := 0; k < n; k++ {
		j := (d.rr.decode + k) % n
		if d.dIns(j).Down() || !d.actingDecode(j) {
			continue
		}
		if d.pIns(i) == d.dIns(j) {
			// The instance that prefilled this request flipped to decode
			// before the transfer started: the KV is already resident, so
			// the stream decodes in place with no copy at all.
			if d.dIns(j).KVOf(q) == nil {
				continue
			}
			d.rr.decode = (j + 1) % n
			fl(q).di = j
			d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, d.dIns(j).Name(), "transfer-local")
			d.dIns(j).AdmitDecode(q)
			return true
		}
		if d.dIns(j).AllocateKV(q, q.Ctx()+1) == nil {
			d.rr.decode = (j + 1) % n
			fl(q).di = j
			d.cfg.Decisions.AddRoute(d.r.s.Now(), q.W.ID, d.dIns(j).Name(), "transfer-round-robin")
			d.startCopy(kvCopy{q: q, i: i, j: j, bytes: d.kvBytes(q.Ctx()), lk: d.pdLink(i, j), then: d.serialDone})
			return true
		}
	}
	return false
}

// kvCopy is one KV copy on a link whose life ends at its completion: a
// prefill→decode transfer, serial or WindServe's async one, or a WindServe
// backup. The pd pools the records, and each binds its done method value
// once, when first made, so starting a copy allocates nothing.
type kvCopy struct {
	d  *pd
	fn func() // done, bound once
	// then handles the completion, given the record's fields.
	then func(kvCopy)

	q *engine.Req
	// i and j are the copy's prefill-space and decode-space ends.
	i, j   int
	tokens int    // backups: the context snapshot copied
	stamp  uint64 // async copies: the asyncXfer the copy serves
	start  sim.Time
	bytes  float64
	lk     *xfer.Link
}

// startCopy puts c's bytes on c.lk in a pooled record, stamped with the
// current time; c.then runs when the payload has crossed.
func (d *pd) startCopy(c kvCopy) {
	var rec *kvCopy
	if n := len(d.copies); n > 0 {
		rec = d.copies[n-1]
		d.copies = d.copies[:n-1]
	} else {
		rec = new(kvCopy)
		rec.fn = rec.done
	}
	c.d, c.fn, c.start = d, rec.fn, d.r.s.Now()
	*rec = c
	c.lk.Transfer(c.bytes, rec.fn)
}

// done is a copy's link completion. It takes the fields, returns the
// record to the pool, then runs the handler: a re-route inside the
// handler may start a new copy, and can take this very record.
func (c *kvCopy) done() {
	v := *c
	*c = kvCopy{fn: c.fn}
	v.d.copies = append(v.d.copies, c)
	v.then(v)
}

// finishSerial lands a serial prefill→decode copy.
func (d *pd) finishSerial(c kvCopy) {
	q, i, j := c.q, c.i, c.j
	d.observeTransfer(c.bytes, c.start)
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Add("link "+c.lk.Name(), trace.KindKVTransfer, c.start, d.r.s.Now(),
			fmt.Sprintf("req%d %d tokens", q.W.ID, q.Ctx()))
	}
	d.pIns(i).ReleaseKV(q)
	if q.Phase == engine.PhaseAborted {
		d.releaseAt(d.dIns(j), q)
		return
	}
	if d.dIns(j).Down() || d.dIns(j).KVOf(q) == nil {
		// The target crashed while the payload was in flight — its KV
		// reset dropped the allocation — and may even have restored
		// already with empty blocks. Re-route through the serial path to
		// an instance holding a fresh allocation.
		fl(q).di = noIdx
		d.serialTransfer(q)
		return
	}
	if d.flipped != nil && !d.actingDecode(j) {
		// The target flipped to prefill while the payload was in flight;
		// hand the stream to a current acting decode instead of loading
		// the fresh prefill role with it.
		d.releaseAt(d.dIns(j), q)
		fl(q).di = noIdx
		d.serialTransfer(q)
		return
	}
	d.dIns(j).AdmitDecode(q)
}

// observeTransfer feeds a completed prefill→decode copy into the Profiler
// so Algorithm 1's TTFT prediction prices the transfer a prefill-side
// placement implies — on a degraded link that bias shifts dispatch toward
// the decode instance.
func (d *pd) observeTransfer(bytes float64, start sim.Time) {
	if d.coord != nil {
		d.coord.Prof.ObserveTransfer(bytes, d.r.s.Now().Sub(start))
	}
}

// releaseAt frees a request's KV on one instance if present, re-kicking it.
func (d *pd) releaseAt(ins *engine.Instance, q *engine.Req) {
	if ins.KVOf(q).Release() == nil {
		ins.Kick()
	}
}

// forget drops everything the cluster keeps for a request that completed,
// aborted, restarts from scratch or was orphaned by a replica crash: any
// KV it still holds on any instance (backups, stale migration targets,
// async copies), its placement, and its async-transfer and backup state.
// Its migration and its recovered bit stay.
func (d *pd) forget(q *engine.Req) {
	for _, ins := range d.ins {
		d.releaseAt(ins, q)
	}
	f := fl(q)
	f.pi, f.di, f.backupAt = noIdx, noIdx, noIdx
	f.async, f.BackupInFlight = asyncXfer{}, false
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

// abort is the runner's onAbort: it scrubs a terminated request (Phase
// already PhaseAborted) from the cluster: both owning instances, its
// migration, the transfer queue, and whatever it holds anywhere else
// (backups, async copies). KV held on a post-prefill transfer in flight
// is released by that transfer's own callback.
func (d *pd) abort(q *engine.Req) {
	f := fl(q)
	if f.pi != noIdx {
		d.pIns(f.pi).Abort(q)
	}
	if f.di != noIdx {
		d.dIns(f.di).Abort(q)
	}
	if f.mig != nil {
		d.drop(f.mig)
	}
	for i, p := range d.transferPending {
		if p == q {
			d.transferPending = append(d.transferPending[:i], d.transferPending[i+1:]...)
			break
		}
	}
	d.forget(q)
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
	res.Dispatched = d.dispatched
	res.Rescheduled = d.rescheduled
	res.Backups = d.backups
	if d.coord != nil {
		res.TransferRateBps = d.coord.Prof.TransferRate()
	}
}
