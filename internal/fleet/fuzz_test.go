package fleet

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"windserve/internal/elastic"
	"windserve/internal/model"
	"windserve/internal/serve"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// arrivalRecord is the fuzz encoding of one request: an ID byte (a small
// ID space, so duplicates occur), prompt tokens as a signed byte × 16,
// output tokens as a signed byte, then the arrival time's IEEE-754 bits
// (so NaN, ±Inf, negative and huge times all occur).
const arrivalRecord = 11

func decodeArrivals(data []byte) []workload.Request {
	var reqs []workload.Request
	for len(data) >= arrivalRecord && len(reqs) < 8 {
		reqs = append(reqs, workload.Request{
			ID:           uint64(data[0]),
			PromptTokens: int(int8(data[1])) * 16,
			OutputTokens: int(int8(data[2])),
			Arrival:      sim.Time(math.Float64frombits(binary.LittleEndian.Uint64(data[3:]))),
		})
		data = data[arrivalRecord:]
	}
	return reqs
}

func encodeArrivals(reqs []workload.Request) []byte {
	var out []byte
	for _, r := range reqs {
		out = append(out, byte(r.ID), byte(int8(r.PromptTokens/16)), byte(int8(r.OutputTokens)))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(float64(r.Arrival)))
	}
	return out
}

// FuzzArrivals drives arbitrary request streams through the front door of
// a single testbed and of a two-replica fleet. Each run must either
// return an error naming one of the requests, or account for every
// request: completed + aborted + rejected + unfinished = requests.
func FuzzArrivals(f *testing.F) {
	traces := badArrivalTraces()
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(encodeArrivals(traces[name]))
	}
	f.Add(encodeArrivals([]workload.Request{ // a valid stream
		{ID: 1, Arrival: 0, PromptTokens: 512, OutputTokens: 32},
		{ID: 2, Arrival: 0.5, PromptTokens: 64, OutputTokens: 100},
		{ID: 3, Arrival: 0.5, PromptTokens: 1024, OutputTokens: 8},
	}))
	rcfg, err := serve.DefaultConfig(model.OPT13B)
	if err != nil {
		f.Fatal(err)
	}
	rcfg.Horizon = sim.Seconds(600)
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs := decodeArrivals(data)
		named := func(sys string, err error) {
			for _, r := range reqs {
				if strings.Contains(err.Error(), fmt.Sprintf("request %d ", r.ID)) {
					return
				}
			}
			t.Fatalf("%s: error names no request: %v", sys, err)
		}
		partition := func(sys string, completed, aborted, rejected, unfinished, requests int) {
			if completed+aborted+rejected+unfinished != requests {
				t.Fatalf("%s: %d completed + %d aborted + %d rejected + %d unfinished != %d requests",
					sys, completed, aborted, rejected, unfinished, requests)
			}
		}
		res, err := serve.RunDistServeFrom(rcfg, workload.NewSliceSource(reqs))
		if err != nil {
			named("DistServe", err)
		} else {
			partition("DistServe", len(res.Records), res.Aborted, res.Rejected, res.Unfinished, res.Requests)
		}
		cfg := testConfig(t, 2)
		fres, err := RunFrom(cfg, workload.NewSliceSource(reqs))
		if err != nil {
			named("fleet", err)
		} else {
			partition("fleet", fres.Completed, fres.Aborted, fres.Rejected, fres.Unfinished, fres.Requests)
		}
	})
}

// FuzzFleetConfig runs a 4-request stream through fleets built from
// fuzzed counts, durations, router policy and elastic settings, with
// replica and shard counts kept small. No input may panic. A config with
// an invalid field must be refused with an error that names the field,
// and a config with none must run.
func FuzzFleetConfig(f *testing.F) {
	f.Add(int8(2), int8(1), int8(1), int8(1), int8(0), int8(0), 20.0, 0.0, 600.0, "round-robin", false, 0.25, 5.0, 2.0, 0.5, int8(1), int8(1))
	f.Add(int8(3), int8(2), int8(2), int8(1), int8(4), int8(2), 0.0, 3.0, 0.0, "weighted", true, 0.0, 0.0, 0.0, 0.05, int8(0), int8(0))
	f.Add(int8(0), int8(-1), int8(-1), int8(-2), int8(-1), int8(-1), -1.0, math.NaN(), math.Inf(1), "fastest", true, -1.0, math.NaN(), math.Inf(-1), -0.5, int8(-1), int8(-3))
	f.Add(int8(1), int8(3), int8(1), int8(2), int8(0), int8(1), 1e-300, 1e-9, 1e300, "prefix-affinity", true, 1e-300, 1e300, 1e9, 1e9, int8(5), int8(5))
	rcfg, err := serve.DefaultConfig(model.OPT13B)
	if err != nil {
		f.Fatal(err)
	}
	reqs := []workload.Request{
		{ID: 1, Arrival: 0, PromptTokens: 512, OutputTokens: 16},
		{ID: 2, Arrival: 0.1, PromptTokens: 64, OutputTokens: 40},
		{ID: 3, Arrival: 0.2, PromptTokens: 1024, OutputTokens: 4},
		{ID: 4, Arrival: 0.3, PromptTokens: 256, OutputTokens: 8},
	}
	f.Fuzz(func(t *testing.T, replicas, shards, prefill, decode, maxQueue, brownout int8,
		failover, deadline, horizon float64, policy string,
		enabled bool, every, cooldown, ratio, minPressure float64, minPrefill, minDecode int8) {
		cfg := Config{
			Replica:         rcfg,
			NumReplicas:     int(replicas) % 4,
			Shards:          int(shards) % 4,
			Policy:          policy,
			FailoverTimeout: sim.Duration(failover),
			MaxQueueDepth:   int(maxQueue),
			TTFTDeadline:    sim.Duration(deadline),
			BrownoutDepth:   int(brownout),
			Horizon:         sim.Duration(horizon),
			Elastic: elastic.Policy{
				Enabled: enabled, Every: sim.Duration(every), Cooldown: sim.Duration(cooldown),
				Ratio: ratio, MinPressure: minPressure, MinPrefill: int(minPrefill), MinDecode: int(minDecode),
			},
		}
		cfg.Replica.NumPrefill, cfg.Replica.NumDecode = int(prefill)%3, int(decode)%3
		bad := map[string]bool{}
		flag := func(name string, invalid bool) {
			if invalid {
				bad[name] = true
			}
		}
		badDuration := func(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }
		// Two durations act as periods: the role controller ticks every
		// Every while requests are in flight, and a brown-out defers a
		// failover by FailoverTimeout at a time. A positive period below
		// sim.MinPeriod is rejected.
		badPeriod := func(v float64) bool { return badDuration(v) || (v > 0 && v < float64(sim.MinPeriod)) }
		flag("NumReplicas", cfg.NumReplicas < 1)
		flag("Shards", cfg.Shards < 0)
		flag("MaxQueueDepth", cfg.MaxQueueDepth < 0)
		flag("BrownoutDepth", cfg.BrownoutDepth < 0)
		flag("FailoverTimeout", badPeriod(failover))
		flag("TTFTDeadline", badDuration(deadline))
		flag("Horizon", badDuration(horizon))
		flag("policy", !map[string]bool{"": true, "round-robin": true, "least-loaded": true, "weighted": true, "prefix-affinity": true}[policy])
		flag("NumPrefill", cfg.Replica.NumPrefill < 0)
		flag("NumDecode", cfg.Replica.NumDecode < 0)
		if enabled {
			flag("Every", badPeriod(every))
			flag("Cooldown", badDuration(cooldown))
			flag("Ratio", badDuration(ratio))
			flag("MinPressure", badDuration(minPressure))
			flag("MinPrefill", cfg.Elastic.MinPrefill < 0)
			flag("MinDecode", cfg.Elastic.MinDecode < 0)
		}

		res, err := RunFrom(cfg, workload.NewSliceSource(reqs))
		if err == nil {
			if len(bad) > 0 {
				t.Fatalf("config with invalid %v accepted", bad)
			}
			checkPartition(t, res)
			return
		}
		for name := range bad {
			if strings.Contains(err.Error(), name) {
				return
			}
		}
		t.Fatalf("error names none of the invalid fields %v: %v", bad, err)
	})
}
