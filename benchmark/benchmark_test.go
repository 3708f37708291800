package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tracesFragment is `go tool pprof -traces -unit=ns` output: a header,
// label lines, inlined frames and a generic frame whose name holds spaces.
const tracesFragment = `File: windserve-bench
Type: cpu
Duration: 4.73s, Total samples = 100ns (100%)
-----------+-------------------------------------------------------
      40ns   runtime.mapIterNext
             runtime.mapiternext (inline)
             windserve/internal/kvcache.(*Manager).evictPrefixBlocks
             windserve/internal/kvcache.(*Manager).Allocate
             windserve/internal/engine.(*Instance).step
             windserve/internal/sim.(*Simulator).Step
-----------+-------------------------------------------------------
      10ns   runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ns   runtime.asyncPreempt
             windserve/internal/engine.(*Instance).formBatch
             windserve/internal/sim.(*Simulator).Step
-----------+-------------------------------------------------------
     bytes:  320B
       5ns   runtime.mallocgc
             windserve/internal/shard.(*Shard[go.shape.struct { windserve/internal/fleet.kind windserve/internal/fleet.mkind }]).runWindow
             windserve/internal/fleet.RunFrom
-----------+-------------------------------------------------------
      15ns   windserve/internal/model.Config.KVBytesPerToken
             windserve/internal/perf.(*CostModel).PrefillTime
-----------+-------------------------------------------------------
       4ns   windserve/internal/fault.Apply.func1
             windserve/internal/sim.(*Simulator).Step
-----------+-------------------------------------------------------
       6ns   runtime.futex
             runtime.findRunnable
             runtime.schedule
`

func TestFoldTraces(t *testing.T) {
	got, err := foldTraces(strings.NewReader(tracesFragment))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"kvcache":       40, // a map iteration charged to the caller's layer
		"runtime.gc":    10, // a background mark worker
		"engine":        20, // a preempted engine frame
		"shard":         5,  // a generic frame with spaces in its name
		"perf":          15, // model folds into perf
		"other":         4,  // an internal package outside the layer map
		"runtime.other": 6,  // no windserve frame, no GC worker
	}
	if len(got) != len(want) {
		t.Errorf("fold = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("fold[%s] = %g, want %g", k, got[k], v)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapIterNext", "windserve/internal/kvcache.(*Manager).evictPrefixBlocks"}, "kvcache"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.asyncPreempt", "windserve/internal/engine.(*Instance).contains", "windserve/internal/serve.(*pd).run"}, "engine"},
		{[]string{"windserve/internal/stats.(*P2).Add", "windserve/internal/metrics.(*Recorder).Complete"}, "metrics"},
		{[]string{"windserve/internal/gpu.(*Topology).Link"}, "perf"},
		{[]string{"main.(*timedSource).Next", "windserve/internal/serve.(*runner).arrive"}, "serve"},
		{[]string{"main.digestSource"}, "runtime.other"},
	} {
		if got := attribute(tc.frames); got != tc.want {
			t.Errorf("attribute(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

func TestParseValue(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "10000000ns": 1e7, "320B": 320, "1.5e+09ns": 1.5e9} {
		got, err := parseValue(in)
		if err != nil || got != want {
			t.Errorf("parseValue(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
}

// TestMedianQuartiles checks the helpers against values from Python's
// statistics.median and statistics.quantiles(xs, n=4).
func TestMedianQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{7, 1, 3}, 3, 1, 7},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if m := median(tc.xs); m != tc.med || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("%v: median %g q1 %g q3 %g, want %g %g %g", tc.xs, m, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	rate := endToEnd[0] // sim_req_per_s: higher is better, bound 0.25
	ttft := endToEnd[4] // sim_ttft_p50_ms: exact, lower is better
	steady := func(m float64) stat { return stat{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	for _, tc := range []struct {
		m        endToEndMetric
		a, b     stat
		sameSeed bool
		want     string
	}{
		{rate, steady(100), steady(110), true, "within-bound"},
		{rate, steady(100), steady(130), true, "better"},
		{rate, steady(100), steady(70), true, "worse"},
		{rate, steady(100), stat{Median: 100, Q1: 70, Q3: 130}, true, "unresolved"},
		{ttft, steady(50), steady(50), true, "identical"},
		{ttft, steady(50), steady(50.001), true, "worse"},
		{ttft, steady(50), steady(49), true, "better"},
		{ttft, steady(50), steady(52), false, "within-bound"},
	} {
		if got := verdict(tc.m, tc.a, tc.b, tc.sameSeed); got != tc.want {
			t.Errorf("verdict(%s, %v, %v, %v) = %s, want %s", tc.m.name, tc.a, tc.b, tc.sameSeed, got, tc.want)
		}
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size twice in this
// process: each run must pass the correctness gates, and both runs must
// agree on their input and result digests. The workload properties need
// full-size runs and are not checked here.
func TestWorkloadsSmoke(t *testing.T) {
	sizes := map[string]int{
		"testbed-windserve":       2000,
		"testbed-distserve-exact": 2000,
		"fleet-chat-prefix":       300,
		"fleet-chaos-2shard":      2000,
	}
	for _, w := range workloads {
		n, ok := sizes[w.name]
		if !ok {
			t.Fatalf("no smoke size for workload %s", w.name)
		}
		var digests []string
		for i := 0; i < 2; i++ {
			r, err := runRep(w, n, 7, false)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if r.Requests != n {
				t.Errorf("%s: %d requests, want %d", w.name, r.Requests, n)
			}
			for _, bad := range checkRun(w, r) {
				t.Errorf("%s: %s", w.name, bad)
			}
			digests = append(digests, r.InputDigest+" "+r.ResultDigest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digests differ between runs: %v", w.name, digests)
		}
		if s, err := setupOnly(w, 7, time.Now()); err != nil || s <= 0 {
			t.Errorf("%s: set-up-only pass: %g s, %v", w.name, s, err)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workload and
// metric tables.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %s %q", i, got, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better(m.higher) || got.Bound == nil || *got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, got, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better(m.higher) || got.Bound != nil {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, got, m)
		}
	}
}
