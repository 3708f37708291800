package main

import (
	"fmt"

	"windserve/internal/fault"
	"windserve/internal/fleet"
	"windserve/internal/model"
	"windserve/internal/serve"
	"windserve/internal/shard"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// setup is one built workload: the system configured and ready to run,
// plus a constructor for its request stream. Building it is the first
// part of the set-up time the benchmark reports.
type setup struct {
	// run drives the system over src and returns its *serve.Result or
	// *fleet.Result.
	run func(src workload.Source) (any, error)
	// source returns a fresh copy of the workload's request stream; every
	// call yields the same requests.
	source func() workload.Source
	// shardStats receives the shard barrier counters of a fleet run.
	shardStats *shard.Stats
}

// benchWorkload is one named workload of the benchmark.
type benchWorkload struct {
	name string
	why  string
	// requests is the stream length of one repetition.
	requests int
	// prefixCache marks workloads whose cached prefix blocks legitimately
	// outlive their requests, so live KV blocks at the end are no leak.
	prefixCache bool
	build       func(n int, seed int64) (setup, error)
	// properties returns a message for each way the run stopped
	// exercising the layer the workload was chosen for.
	properties func(c map[string]float64) []string
	// hotLayer, when set, is the layer that must have the largest CPU
	// share in the traced run.
	hotLayer string
}

// traceProperties checks the traced run's layer shares.
func (w benchWorkload) traceProperties(vals map[string]float64) []string {
	if w.hotLayer == "" {
		return nil
	}
	hot := vals[w.hotLayer+".cpu_share"]
	var bad []string
	for _, l := range layers {
		if s := vals[l+".cpu_share"]; l != w.hotLayer && s > hot {
			bad = append(bad, fmt.Sprintf("%s.cpu_share %.3f exceeds %s.cpu_share %.3f", l, s, w.hotLayer, hot))
		}
	}
	return bad
}

// chaosPlan is fleet-chaos-2shard's fault schedule, written out for its
// stream of 100,000 requests at 192 req/s (about 521 s of arrivals) the
// way the ext-fleet-chaos exhibit scales its default plan: a replica
// crash at 10% of the span for 15%, a partition at 35% for 10%, a 5%
// client-cancel wave at 45% and an 8x slowdown at 55% for 15%.
const chaosPlan = "rcrash:r0@52+78; rpart:r5@182+52; cancel@234x0.05; rslow:r10@286x8+78"

// workloads is the benchmark's workload list, in the order it runs them.
// Every workload uses the paper's Table 3 placement and Table 4 SLOs from
// serve.DefaultConfig. Stream lengths are chosen so that one repetition
// takes 4-6 s on a 2-vCPU host: several repetitions then fit in one run,
// and the run reports their median.
var workloads = []benchWorkload{
	{
		name:     "testbed-windserve",
		why:      "The paper's system at its knee: Algorithm-1 dispatch, rescheduling and KV backups all fire, while fleet, shard and prefix-cache code is bypassed.",
		requests: 150_000,
		build: func(n int, seed int64) (setup, error) {
			cfg, err := serve.DefaultConfig(model.OPT13B)
			if err != nil {
				return setup{}, err
			}
			cfg.Stream = serve.StreamPolicy{Enabled: true}
			rate := 4.0 * float64(cfg.TotalGPUs())
			return setup{
				run:    func(src workload.Source) (any, error) { return serve.RunWindServeFrom(cfg, src) },
				source: poissonShareGPT(n, rate, seed),
			}, nil
		},
		properties: func(c map[string]float64) []string {
			var bad []string
			if c["sched.dispatch_frac"] <= 0.3 {
				bad = append(bad, fmt.Sprintf("sched.dispatch_frac %.3f, want > 0.3", c["sched.dispatch_frac"]))
			}
			if c["sched.rescheduled"] <= 0 {
				bad = append(bad, "sched.rescheduled is 0, want > 0")
			}
			return bad
		},
	},
	{
		name:     "testbed-distserve-exact",
		why:      "DistServe with the exact recorder: no Global Scheduler decisions and every record retained; the control for sched work and where recorder and memory work shows.",
		requests: 250_000,
		build: func(n int, seed int64) (setup, error) {
			cfg, err := serve.DefaultConfig(model.OPT13B)
			if err != nil {
				return setup{}, err
			}
			rate := 3.0 * float64(cfg.TotalGPUs())
			return setup{
				run:    func(src workload.Source) (any, error) { return serve.RunDistServeFrom(cfg, src) },
				source: poissonShareGPT(n, rate, seed),
			}, nil
		},
		properties: func(c map[string]float64) []string {
			if c["sched.dispatched"] != 0 {
				return []string{fmt.Sprintf("sched.dispatched %g, want 0", c["sched.dispatched"])}
			}
			return nil
		},
	},
	{
		name:        "fleet-chat-prefix",
		why:         "The only workload with shared prefixes: once GPU KV fills, every allocation evicts or demotes cached prefix blocks, so the prefix-cache path dominates.",
		requests:    5_500,
		prefixCache: true,
		hotLayer:    "kvcache",
		build: func(n int, seed int64) (setup, error) {
			rcfg, err := serve.DefaultConfig(model.LLaMA213B)
			if err != nil {
				return setup{}, err
			}
			rcfg.Prefix = serve.PrefixPolicy{Enabled: true, Tiered: true}
			sc, err := workload.ScenarioByName("chat")
			if err != nil {
				return setup{}, err
			}
			const replicas = 8
			st := new(shard.Stats)
			cfg := fleet.Config{
				Replica:         rcfg,
				NumReplicas:     replicas,
				Shards:          1,
				ShardStats:      st,
				Policy:          "prefix-affinity",
				FailoverTimeout: sim.Seconds(30),
				MaxQueueDepth:   512,
				TTFTDeadline:    sim.Seconds(120),
				BrownoutDepth:   48,
			}
			rate := 1.0 * float64(rcfg.TotalGPUs()) * replicas
			return setup{
				run:        func(src workload.Source) (any, error) { return fleet.RunFrom(cfg, src) },
				source:     func() workload.Source { return sc.Source(n, rate, seed) },
				shardStats: st,
			}, nil
		},
		properties: func(c map[string]float64) []string {
			var bad []string
			if c["kvcache.prefix_evictions"]+c["kvcache.prefix_demotions"] <= 0 {
				bad = append(bad, "no prefix evictions or demotions, want > 0")
			}
			if c["kvcache.prefix_hit_ratio"] <= 0.4 {
				bad = append(bad, fmt.Sprintf("kvcache.prefix_hit_ratio %.3f, want > 0.4", c["kvcache.prefix_hit_ratio"]))
			}
			return bad
		},
	},
	{
		name:     "fleet-chaos-2shard",
		why:      "The only workload that runs the shard barrier on two goroutines and the only one with replica crashes, partitions, failovers and aborts.",
		requests: 100_000,
		build: func(n int, seed int64) (setup, error) {
			rcfg, err := serve.DefaultConfig(model.OPT13B)
			if err != nil {
				return setup{}, err
			}
			plan, err := fault.Parse(chaosPlan)
			if err != nil {
				return setup{}, err
			}
			plan.Seed = seed
			const replicas = 16
			st := new(shard.Stats)
			cfg := fleet.Config{
				Replica:         rcfg,
				NumReplicas:     replicas,
				Shards:          2,
				ShardStats:      st,
				Policy:          "weighted",
				FailoverTimeout: sim.Seconds(10),
				MaxQueueDepth:   512,
				TTFTDeadline:    sim.Seconds(60),
				BrownoutDepth:   24,
				Faults:          plan,
			}
			rate := 3.0 * float64(rcfg.TotalGPUs()) * replicas
			return setup{
				run:        func(src workload.Source) (any, error) { return fleet.RunFrom(cfg, src) },
				source:     poissonShareGPT(n, rate, seed),
				shardStats: st,
			}, nil
		},
		properties: func(c map[string]float64) []string {
			var bad []string
			if c["shard.crossing_frac"] <= 0.9 {
				bad = append(bad, fmt.Sprintf("shard.crossing_frac %.3f, want > 0.9", c["shard.crossing_frac"]))
			}
			if c["fleet.failovers"] <= 0 {
				bad = append(bad, "fleet.failovers is 0, want > 0")
			}
			return bad
		},
	},
}

// poissonShareGPT returns a constructor for n ShareGPT requests arriving
// as a Poisson process at rate req/s.
func poissonShareGPT(n int, rate float64, seed int64) func() workload.Source {
	return func() workload.Source {
		return workload.NewGenerator(workload.ShareGPT(), workload.PoissonArrivals{Rate: rate}, seed).Source(n)
	}
}

// workloadByName looks a workload up by name.
func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
