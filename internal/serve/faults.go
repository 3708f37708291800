package serve

import (
	"windserve/internal/engine"
	"windserve/internal/fault"
)

// installPDFaults compiles the configured fault plan into hooks against a
// prefill/decode cluster. Crashes go through pd.crash: the pd layer's
// re-prefill-from-scratch recovery, or WindServe's backup-aware
// pdHooks.crash.
func installPDFaults(r *runner, d *pd) error {
	if r.cfg.Faults == nil {
		return nil
	}
	// phys resolves a target to its physical index; validate has already
	// bounded idx by the role's home count.
	phys := func(role fault.Role, idx int) int {
		if role == fault.RolePrefill {
			return idx
		}
		return d.dPhys(idx)
	}
	h := fault.Hooks{
		Crash: func(role fault.Role, idx int) {
			if k := phys(role, idx); !d.ins[k].Down() {
				d.crash(k)
			}
		},
		Restore: func(role fault.Role, idx int) {
			d.ins[phys(role, idx)].Restore()
			if role != fault.RolePrefill {
				// Fresh decode KV may unblock transfers queued on survivors.
				d.retryTransfers()
			}
		},
		SetSlowdown: func(role fault.Role, idx int, factor float64) {
			d.ins[phys(role, idx)].SetSlowdown(factor)
		},
		SetLinkDegrade: d.degradeLinks,
		Cancel:         r.cancelFrac,
	}
	return fault.Apply(r.s, r.cfg.Faults, h)
}

// installVLLMFaults maps a plan onto vLLM's replica set. With no
// prefill/decode split, both roles address replica idx%len(instances);
// link degradation has no cross-instance link to act on and is ignored.
// Crash orphans re-prefill from scratch on the replica route provides.
func installVLLMFaults(r *runner, instances []*engine.Instance, route func(q *engine.Req)) error {
	if r.cfg.Faults == nil {
		return nil
	}
	n := len(instances)
	pick := func(idx int) *engine.Instance { return instances[idx%n] }
	h := fault.Hooks{
		Crash: func(_ fault.Role, idx int) {
			ins := pick(idx)
			if ins.Down() {
				return
			}
			for _, q := range liveOrphans(ins.Crash()) {
				r.restart(q, route)
			}
		},
		Restore: func(_ fault.Role, idx int) { pick(idx).Restore() },
		SetSlowdown: func(_ fault.Role, idx int, factor float64) {
			pick(idx).SetSlowdown(factor)
		},
		Cancel: r.cancelFrac,
	}
	return fault.Apply(r.s, r.cfg.Faults, h)
}
