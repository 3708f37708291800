package serve

import (
	"fmt"

	"windserve/internal/cluster"
	"windserve/internal/engine"
	"windserve/internal/workload"
)

// RunVLLM simulates the co-located baseline: continuous batching with
// chunked prefill enabled (the configuration the paper compares against,
// vLLM v0.4.2 with chunked prefill). Prefill and decode jobs share hybrid
// batches, so each decode iteration pays the prefill chunks' latency —
// the interference PD systems remove.
//
// To occupy the same GPU budget as the disaggregated pair (the paper's
// linear scaling rule compares per-GPU rates), vLLM deploys
// (prefill+decode GPUs) / PrefillPlace.GPUs() identical replicas with
// round-robin request routing.
func RunVLLM(cfg Config, reqs []workload.Request) (*Result, error) {
	return RunVLLMFrom(cfg, workload.NewSliceSource(reqs))
}

// RunVLLMFrom is RunVLLM fed from a pull-based request source.
func RunVLLMFrom(cfg Config, src workload.Source) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	cfg = r.cfg

	totalGPUs := cfg.TotalGPUs()
	replicas := totalGPUs / cfg.PrefillPlace.GPUs()
	if replicas < 1 {
		replicas = 1
	}
	specs := make([]cluster.InstanceSpec, replicas)
	for i := range specs {
		specs[i] = cluster.InstanceSpec{Role: cluster.RoleColocated, Place: cfg.PrefillPlace}
	}
	asg, err := cluster.Plan(cfg.Topo, cfg.Model, cfg.Params, reserveFrac, specs...)
	if err != nil {
		return nil, fmt.Errorf("serve: planning vLLM: %w", err)
	}

	at := make(map[uint64]int) // request → replica, for abort scrubbing
	instances := make([]*engine.Instance, replicas)
	for i, a := range asg {
		hooks := r.recorderHooks() // nil OnPrefillDone: finished prompts join the local batch
		base := hooks.OnComplete
		// Scrub the routing entry on completion, not just on abort —
		// otherwise the map grows with every request ever served.
		hooks.OnComplete = func(q *engine.Req) {
			base(q)
			delete(at, q.W.ID)
		}
		ins, err := r.newInstance(a, engine.Config{
			Name: fmt.Sprintf("vllm-%d", i), AllowPrefill: true, AlwaysChunk: true,
		}, fmt.Sprintf("host-%d", i), hooks)
		if err != nil {
			return nil, err
		}
		instances[i] = ins
	}

	next := 0
	route := func(q *engine.Req) {
		// Round-robin over live replicas; with all replicas down, park on
		// the nominal one until a restore drains its queue.
		i := -1
		for k := 0; k < replicas; k++ {
			c := (next + k) % replicas
			if !instances[c].Down() {
				i = c
				break
			}
		}
		if i < 0 {
			i = next % replicas
		}
		next = i + 1
		at[q.W.ID] = i
		cfg.Decisions.AddRoute(r.s.Now(), q.W.ID, instances[i].Name(), "round-robin")
		instances[i].EnqueuePrefill(q)
	}
	r.queueDepth = func() int {
		n := 0
		for _, ins := range instances {
			n += ins.NumQueued()
		}
		return n
	}
	r.onAbort = func(q *engine.Req) {
		if i, ok := at[q.W.ID]; ok {
			instances[i].Abort(q)
			delete(at, q.W.ID)
		}
	}
	if err := installVLLMFaults(r, instances, route); err != nil {
		return nil, err
	}
	r.scheduleStream(src, route)
	res, err := r.run("vLLM")
	if err != nil {
		return nil, err
	}

	// Aggregate replica telemetry.
	var cu, bu float64
	for _, ins := range instances {
		res.fold(ins, &res.DecodeKV, &cu, &bu)
	}
	res.PrefillKV = res.DecodeKV
	res.PrefillComputeUtil, res.PrefillBWUtil = cu/float64(replicas), bu/float64(replicas)
	res.DecodeComputeUtil, res.DecodeBWUtil = res.PrefillComputeUtil, res.PrefillBWUtil
	return res, nil
}
