package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"windserve/internal/gpu"
	"windserve/internal/kvcache"
	"windserve/internal/model"
	"windserve/internal/perf"
	"windserve/internal/sim"
	"windserve/internal/trace"
	"windserve/internal/workload"
	"windserve/internal/xfer"
)

// tinyModel is a small config so tests control KV budgets precisely.
func tinyModel() model.Config {
	return model.Config{
		Name: "tiny", Layers: 4, Hidden: 512, Heads: 8, KVHeads: 8,
		FFNDim: 2048, MaxContext: 2048, VocabSize: 1000,
	}
}

type harness struct {
	s   *sim.Simulator
	ins *Instance
	kv  *kvcache.Manager

	prefilled []uint64
	decoded   []uint64
	completed []uint64
	evicted   []*Req
}

func newHarness(t testing.TB, kvTokens, cpuTokens int, mut func(*Config), hookMut func(*harness, *Hooks)) *harness {
	t.Helper()
	h := &harness{s: sim.New()}
	cm := perf.MustNew(tinyModel(), gpu.A800, perf.Placement{TP: 1, PP: 1}, gpu.NVLinkBridge, perf.DefaultParams())
	h.kv = kvcache.MustNew(kvTokens, cpuTokens, 16)
	host := xfer.NewLink(h.s, "host", gpu.HostPCIe, 1)
	cfg := Config{
		Name: "test", CM: cm, KV: h.kv, HostLink: host,
		AllowPrefill: true, MaxPrefillTokens: 4096,
	}
	if mut != nil {
		mut(&cfg)
	}
	hooks := Hooks{
		OnPrefillDone: nil,
		OnComplete:    func(r *Req) { h.completed = append(h.completed, r.W.ID) },
		OnDecodeStart: func(r *Req) { h.decoded = append(h.decoded, r.W.ID) },
	}
	hooks.OnPrefillStart = func(r *Req) { h.prefilled = append(h.prefilled, r.W.ID) }
	if hookMut != nil {
		hookMut(h, &hooks)
	}
	ins, err := NewInstance(h.s, cfg, hooks)
	if err != nil {
		t.Fatal(err)
	}
	h.ins = ins
	return h
}

func req(id uint64, prompt, output int) *Req {
	return NewReq(workload.Request{ID: id, PromptTokens: prompt, OutputTokens: output})
}

func TestReqAccessors(t *testing.T) {
	r := req(1, 100, 10)
	if r.Ctx() != 100 || r.PrefillComplete() || r.Finished() {
		t.Error("fresh request state")
	}
	r.PrefillDone = 60
	if r.PrefillRemaining() != 40 {
		t.Error("PrefillRemaining")
	}
	r.PrefillDone = 100
	r.SetGenerated(10)
	if !r.PrefillComplete() || !r.Finished() || r.Ctx() != 110 {
		t.Error("finished request state")
	}
	if r.KVID() != kvcache.RequestID(1) {
		t.Error("KVID")
	}
	for p := PhaseWaiting; p <= PhaseDone; p++ {
		if p.String() == "" {
			t.Error("empty phase string")
		}
	}
	if Phase(99).String() == "" {
		t.Error("unknown phase string")
	}
}

func TestColocatedEndToEnd(t *testing.T) {
	h := newHarness(t, 1<<20, 1<<20, nil, nil)
	// Three requests: prefill then decode to completion locally.
	for i := 1; i <= 3; i++ {
		h.ins.EnqueuePrefill(req(uint64(i), 200, 5))
	}
	h.s.RunAll()
	if len(h.completed) != 3 {
		t.Fatalf("completed %d of 3: %v", len(h.completed), h.completed)
	}
	if len(h.prefilled) != 3 {
		t.Errorf("prefill started for %v", h.prefilled)
	}
	if h.ins.NumRunning() != 0 || h.ins.NumQueued() != 0 {
		t.Error("instance not drained")
	}
	if h.kv.UsedBlocks() != 0 {
		t.Errorf("leaked %d KV blocks", h.kv.UsedBlocks())
	}
	if h.ins.Iterations == 0 {
		t.Error("no iterations counted")
	}
}

func TestSingleTokenOutputCompletesAtPrefill(t *testing.T) {
	h := newHarness(t, 1<<20, 0, nil, nil)
	h.ins.EnqueuePrefill(req(1, 300, 1))
	h.s.RunAll()
	if len(h.completed) != 1 {
		t.Fatal("single-token request did not complete")
	}
	if len(h.decoded) != 0 {
		t.Error("single-token request should never decode")
	}
	if h.kv.UsedBlocks() != 0 {
		t.Error("KV leaked")
	}
}

func TestFCFSPrefillOrder(t *testing.T) {
	var order []uint64
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.MaxPrefillTokens = 100 // force one prompt per pass
	}, func(h *harness, hk *Hooks) {
		hk.OnPrefillDone = func(r *Req) { order = append(order, r.W.ID) }
	})
	for i := 1; i <= 4; i++ {
		h.ins.EnqueuePrefill(req(uint64(i), 100, 1))
	}
	h.s.RunAll()
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("prefill order = %v, want FCFS", order)
		}
	}
}

func TestWholePromptBatching(t *testing.T) {
	// With a 400-token budget, four 100-token prompts prefill in one pass.
	h := newHarness(t, 1<<20, 0, func(c *Config) { c.MaxPrefillTokens = 400 }, nil)
	for i := 1; i <= 4; i++ {
		h.ins.EnqueuePrefill(req(uint64(i), 100, 1))
	}
	h.s.RunAll()
	if h.ins.Iterations != 1 {
		t.Errorf("iterations = %d, want 1 batched prefill pass", h.ins.Iterations)
	}
}

func TestChunkedPrefillProgresses(t *testing.T) {
	// AlwaysChunk with a 128-token budget: a 512-token prompt needs 4
	// chunk passes.
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.ChunkSize = 128
		c.AlwaysChunk = true
	}, nil)
	h.ins.EnqueuePrefill(req(1, 512, 1))
	h.s.RunAll()
	if len(h.completed) != 1 {
		t.Fatal("chunked request did not complete")
	}
	if h.ins.Iterations != 4 {
		t.Errorf("iterations = %d, want 4 chunks", h.ins.Iterations)
	}
}

func TestHybridChunkingWhenDecodesPresent(t *testing.T) {
	// Without AlwaysChunk, chunking starts only once decodes are running:
	// request 1's prefill runs whole (queue was empty of decodes), then
	// request 2's 512-token prompt must ride along decode passes in
	// chunks of at most 128 tokens.
	tr := trace.New()
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.ChunkSize = 128
		c.Tracer = tr
	}, nil)
	h.ins.EnqueuePrefill(req(1, 256, 50)) // becomes a decode
	// Request 2 arrives once request 1 is already decoding.
	h.s.Schedule(sim.Seconds(0.02), func() { h.ins.EnqueuePrefill(req(2, 512, 1)) })
	h.s.RunAll()
	if len(h.completed) != 2 {
		t.Fatalf("completed %v", h.completed)
	}
	sawWhole, maxHybridPrefill := false, 0
	for _, sp := range tr.Filter("test") {
		var pre, dec int
		if _, err := fmt.Sscanf(sp.Detail, "pre=%d dec=%d", &pre, &dec); err != nil {
			continue
		}
		if dec == 0 && pre == 256 {
			sawWhole = true // request 1's un-chunked prefill
		}
		if dec > 0 && pre > maxHybridPrefill {
			maxHybridPrefill = pre
		}
	}
	if !sawWhole {
		t.Error("request 1 should prefill whole with no decodes running")
	}
	if maxHybridPrefill == 0 || maxHybridPrefill > 128 {
		t.Errorf("max prefill tokens in a hybrid pass = %d, want 1..128 (chunked)", maxHybridPrefill)
	}
}

func TestDecodeOnlyInstanceIgnoresPrefillQueue(t *testing.T) {
	h := newHarness(t, 1<<20, 0, func(c *Config) { c.AllowPrefill = false }, nil)
	h.ins.EnqueuePrefill(req(1, 100, 5))
	h.s.RunAll()
	if len(h.completed) != 0 {
		t.Error("decode-only instance must not prefill")
	}
	if h.ins.QueuedPrefillTokens() != 100 {
		t.Errorf("QueuedPrefillTokens = %d", h.ins.QueuedPrefillTokens())
	}
}

func TestAdmitDecodeExternalKV(t *testing.T) {
	// Decode-only instance: KV arrives via "transfer" (allocated by the
	// system), then AdmitDecode drives decoding to completion.
	h := newHarness(t, 1<<20, 0, func(c *Config) { c.AllowPrefill = false }, nil)
	r := req(1, 100, 5)
	r.PrefillDone = 100
	r.SetGenerated(1)
	if err := h.ins.AllocateKV(r, 101); err != nil {
		t.Fatal(err)
	}
	h.ins.AdmitDecode(r)
	h.s.RunAll()
	if len(h.completed) != 1 {
		t.Fatal("admitted request did not complete")
	}
	if len(h.decoded) != 1 {
		t.Error("OnDecodeStart not fired")
	}
	if h.kv.UsedBlocks() != 0 {
		t.Error("KV leaked after completion")
	}
}

func TestPreemptionSwapsAndRecovers(t *testing.T) {
	// KV for ~word 640 tokens; two requests of 256+some growth force a
	// preemption as contexts grow, then swap-in resumes and both finish.
	h := newHarness(t, 640, 1<<20, nil, nil)
	h.ins.EnqueuePrefill(req(1, 256, 120))
	h.ins.EnqueuePrefill(req(2, 256, 120))
	h.s.RunAll()
	if len(h.completed) != 2 {
		t.Fatalf("completed %v, want both", h.completed)
	}
	st := h.kv.Stats()
	if st.SwapOutEvents == 0 {
		t.Error("expected at least one preemption swap")
	}
	if st.SwapInEvents == 0 {
		t.Error("swapped request never swapped back in")
	}
	if h.ins.SwapStall <= 0 {
		t.Error("swaps should stall the engine")
	}
}

func TestEvictionToRecomputeWhenNoSwapSpace(t *testing.T) {
	var evicted []*Req
	h := newHarness(t, 640, 0 /* no swap space */, nil, func(h *harness, hk *Hooks) {
		hk.OnEvicted = func(r *Req) { evicted = append(evicted, r) }
	})
	h.ins.EnqueuePrefill(req(1, 256, 200))
	h.ins.EnqueuePrefill(req(2, 256, 200))
	h.s.RunAll()
	if h.ins.Recomputes == 0 {
		t.Fatal("expected recompute evictions without swap space")
	}
	if len(evicted) == 0 {
		t.Fatal("OnEvicted hook not called")
	}
	for _, r := range evicted {
		if r.PrefillDone != 0 {
			t.Error("evicted request should restart prefill from zero")
		}
	}
}

func TestEvictionDefaultRequeuesLocally(t *testing.T) {
	// Without OnEvicted, evicted requests re-enter the local prefill queue
	// and eventually complete (KV just large enough for one at a time).
	h := newHarness(t, 384, 0, nil, nil)
	h.ins.EnqueuePrefill(req(1, 128, 150))
	h.ins.EnqueuePrefill(req(2, 128, 150))
	h.s.RunAll()
	if len(h.completed) != 2 {
		t.Fatalf("completed %v, want both via recompute", h.completed)
	}
}

func TestSBDAssistRunsConcurrently(t *testing.T) {
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.AllowPrefill = false
		c.SBD = true
	}, nil)
	// A running decode job.
	d := req(1, 100, 400)
	d.PrefillDone = 100
	d.SetGenerated(1)
	if err := h.ins.AllocateKV(d, 101); err != nil {
		t.Fatal(err)
	}
	h.ins.AdmitDecode(d)
	// An assist prefill dispatched here (KV pre-allocated by the system).
	a := req(2, 1024, 5)
	if err := h.ins.AllocateKV(a, 1025); err != nil {
		t.Fatal(err)
	}
	h.ins.EnqueueAssist(a)
	h.s.RunAll()
	if len(h.completed) != 2 {
		t.Fatalf("completed %v, want both", h.completed)
	}
	// The assist must have overlapped decode iterations rather than
	// serializing: the decode stream never stops, so request 1's
	// completion time should be well below (decode iterations + full
	// prefill) serialized.
	if h.ins.AssistActive() {
		t.Error("assist still active after drain")
	}
}

func TestAssistBatchingSharesOnePass(t *testing.T) {
	// Several queued assists within the batch budget run in a single SBD
	// pass (Algorithm 1 inserts the accumulated assistRequests together);
	// an oversized backlog splits across passes.
	tr := trace.New()
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.AllowPrefill = false
		c.SBD = true
		c.MaxPrefillTokens = 1024
		c.Tracer = tr
	}, nil)
	for i := 1; i <= 4; i++ {
		a := req(uint64(i), 400, 2)
		if err := h.ins.AllocateKV(a, 401); err != nil {
			t.Fatal(err)
		}
		h.ins.EnqueueAssist(a)
	}
	h.s.RunAll()
	if len(h.completed) != 4 {
		t.Fatalf("completed %v", h.completed)
	}
	// 4×400 tokens under a 1024 budget → 2 passes of 2 assists each.
	passes := tr.Filter("test/stream2")
	if len(passes) != 2 {
		t.Fatalf("SBD passes = %d, want 2: %+v", len(passes), passes)
	}
	for _, p := range passes {
		if p.Detail != "2 reqs n=800" {
			t.Errorf("pass detail = %q, want batched pair", p.Detail)
		}
	}
}

func TestAssistLargerThanBudgetStillRuns(t *testing.T) {
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.AllowPrefill = false
		c.SBD = true
		c.MaxPrefillTokens = 256 // smaller than the prompt
	}, nil)
	a := req(1, 1024, 2)
	if err := h.ins.AllocateKV(a, 1025); err != nil {
		t.Fatal(err)
	}
	h.ins.EnqueueAssist(a)
	h.s.RunAll()
	if len(h.completed) != 1 {
		t.Fatal("oversized assist starved")
	}
}

func TestAssistWithoutSBDFallsBackToQueue(t *testing.T) {
	h := newHarness(t, 1<<20, 0, func(c *Config) { c.SBD = false }, nil)
	a := req(1, 256, 3)
	if err := h.ins.AllocateKV(a, 257); err != nil {
		t.Fatal(err)
	}
	h.ins.EnqueueAssist(a)
	h.s.RunAll()
	if len(h.completed) != 1 {
		t.Fatal("assist fallback did not complete")
	}
	if !a.Assist {
		t.Error("assist flag lost")
	}
}

func TestHeadOfLineBlocksUntilKVFrees(t *testing.T) {
	// KV fits one 256-token prompt at a time; the second waits, then runs
	// after the first completes and releases.
	h := newHarness(t, 272, 0, nil, nil)
	h.ins.EnqueuePrefill(req(1, 256, 1))
	h.ins.EnqueuePrefill(req(2, 256, 1))
	h.s.RunAll()
	if len(h.completed) != 2 {
		t.Fatalf("completed %v, want both sequentially", h.completed)
	}
}

func TestMaxDecodeBatchCapsAdmission(t *testing.T) {
	// With MaxDecodeBatch=2, a third prefilled request waits in the admit
	// queue until a running slot frees, and all still finish.
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.AllowPrefill = false
		c.MaxDecodeBatch = 2
	}, nil)
	for i := 1; i <= 3; i++ {
		r := req(uint64(i), 100, 30)
		r.PrefillDone = 100
		r.SetGenerated(1)
		if err := h.ins.AllocateKV(r, 101); err != nil {
			t.Fatal(err)
		}
		h.ins.AdmitDecode(r)
	}
	h.s.Step() // first scheduling pass
	if h.ins.NumRunning() != 2 || h.ins.PendingAdmits() != 1 {
		t.Fatalf("running=%d pending=%d, want 2/1", h.ins.NumRunning(), h.ins.PendingAdmits())
	}
	h.s.RunAll()
	if len(h.completed) != 3 {
		t.Fatalf("completed %v", h.completed)
	}
}

func TestObservabilityViews(t *testing.T) {
	h := newHarness(t, 1<<20, 0, nil, nil)
	h.ins.EnqueuePrefill(req(1, 300, 10))
	h.ins.EnqueuePrefill(req(2, 200, 10))
	if h.ins.QueuedPrefillTokens() != 500 {
		t.Errorf("QueuedPrefillTokens = %d", h.ins.QueuedPrefillTokens())
	}
	if !h.ins.Idle() {
		// Not yet stepped — queue is non-empty so Idle is false.
	}
	// Run one step to get busy.
	h.s.Step()
	if h.ins.BusyRemaining() <= 0 {
		t.Error("BusyRemaining should be positive during a pass")
	}
	h.s.RunAll()
	if h.ins.BusyRemaining() != 0 {
		t.Error("BusyRemaining after drain")
	}
	if !h.ins.Idle() {
		t.Error("instance should be idle after drain")
	}
	shape := h.ins.RunningShape()
	if shape.DecodeReqs != 0 {
		t.Error("RunningShape after drain")
	}
	if h.ins.FreeKVTokens() != 1<<20 {
		t.Errorf("FreeKVTokens = %d", h.ins.FreeKVTokens())
	}
}

func TestUtilizationGaugesPopulated(t *testing.T) {
	h := newHarness(t, 1<<20, 0, nil, nil)
	h.ins.EnqueuePrefill(req(1, 1024, 50))
	h.s.RunAll()
	span := h.s.Now().Sub(0)
	cu := h.ins.ComputeGauge.MeanOver(span)
	bu := h.ins.BWGauge.MeanOver(span)
	if cu <= 0 || cu > 1 {
		t.Errorf("compute utilization = %v", cu)
	}
	if bu <= 0 || bu > 1 {
		t.Errorf("bw utilization = %v", bu)
	}
}

func TestInsertAndRemoveRunning(t *testing.T) {
	h := newHarness(t, 1<<20, 0, func(c *Config) { c.AllowPrefill = false }, nil)
	r := req(1, 100, 50)
	r.PrefillDone = 100
	r.SetGenerated(1)
	if err := h.ins.AllocateKV(r, 101); err != nil {
		t.Fatal(err)
	}
	h.ins.InsertRunning(r)
	if h.ins.NumRunning() != 1 {
		t.Fatal("InsertRunning failed")
	}
	if !h.ins.RemoveRunning(r) {
		t.Fatal("RemoveRunning failed")
	}
	if h.ins.RemoveRunning(r) {
		t.Fatal("double remove succeeded")
	}
}

func TestPPPipelinesPrefillThroughput(t *testing.T) {
	// With PP-2 (tiny model: 4 layers → 2 per stage), back-to-back
	// whole-prompt prefills overlap: 8 prompts should drain in roughly
	// half the serialized time (one initiation interval per pass plus one
	// pipeline drain), so comparing PP-2 vs PP-1 wall clock must show a
	// clear speedup despite PP-1 having lower per-pass latency.
	run := func(pp int) sim.Time {
		h := newHarness(t, 1<<20, 0, func(c *Config) {
			c.CM = perf.MustNew(tinyModel(), gpu.A800, perf.Placement{TP: 1, PP: pp}, gpu.NVLinkBridge, perf.DefaultParams())
			c.MaxPrefillTokens = 600 // one prompt per pass
		}, nil)
		for i := 1; i <= 8; i++ {
			h.ins.EnqueuePrefill(req(uint64(i), 512, 1))
		}
		h.s.RunAll()
		if len(h.completed) != 8 {
			t.Fatalf("PP-%d: completed %d", pp, len(h.completed))
		}
		return h.s.Now()
	}
	serial := run(1)
	pipelined := run(2)
	if pipelined >= serial {
		t.Errorf("PP-2 wall clock %v not below PP-1 %v for a prefill train", pipelined, serial)
	}
}

func TestPipelinedPassesDoNotDuplicateRequests(t *testing.T) {
	// A request selected into an in-flight pipelined pass must not be
	// re-selected into the next pass: each request prefills exactly once.
	var done []uint64
	h := newHarness(t, 1<<20, 0, func(c *Config) {
		c.CM = perf.MustNew(tinyModel(), gpu.A800, perf.Placement{TP: 1, PP: 2}, gpu.NVLinkBridge, perf.DefaultParams())
		c.MaxPrefillTokens = 600
	}, func(h *harness, hk *Hooks) {
		hk.OnFirstToken = func(r *Req) { done = append(done, r.W.ID) }
	})
	for i := 1; i <= 6; i++ {
		h.ins.EnqueuePrefill(req(uint64(i), 512, 1))
	}
	h.s.RunAll()
	seen := map[uint64]int{}
	for _, id := range done {
		seen[id]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("request %d prefilled %d times", id, n)
		}
	}
	if len(seen) != 6 {
		t.Errorf("only %d requests finished prefill", len(seen))
	}
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(sim.New(), Config{Name: "x"}, Hooks{}); err == nil {
		t.Fatal("missing CM/KV accepted")
	}
}

// containsScan is the linear membership scan the runningOn marker
// replaced, kept as the reference the property test checks against.
func containsScan(ins *Instance, r *Req) bool {
	for _, x := range ins.running {
		if x == r {
			return true
		}
	}
	return false
}

// eagerModel is the per-token rule the lazy decode counts replace, kept
// as the reference TestRunningMembershipMatchesScan checks against. A
// decode pass gives each request that was in the running batch when the
// pass formed, and is in it again when the pass applies, one token at its
// position from formation time: the request completes, or its KV grows to
// the new context, evicting the latest-admitted requests while blocks run
// short. The model replays every applied pass from the state before its
// event and checks that the engine ends with the batch, free and held
// blocks, completion order, swapped-out tokens and failed grows the rule
// gives.
type eagerModel struct {
	t     *testing.T
	where string // the seed, step and operation, for failure messages
	inst  []*Instance

	gen    map[*Req]int
	tokens map[*Req]int         // KV tokens of a running request
	blocks map[*Req]int         // KV blocks of a running request
	batch  map[*Instance][]*Req // the decode pass in flight, as it formed
	pre    map[*Instance]modelPre

	// What the hooks saw during the current operation.
	completed []*Req
	started   []*Req // OnDecodeStart
	applied   *Instance
	freed     int // blocks released by requests completing at prefill

	// passed counts victims evicted after the pass gave them its token.
	passed int
}

// modelPre is an instance's state before an operation.
type modelPre struct {
	running   []*Req
	migrating []*Req // the running requests marked Migrating
	free      int
	iters     uint64
	stats     kvcache.Stats
}

func newEagerModel(t *testing.T) *eagerModel {
	return &eagerModel{t: t, gen: map[*Req]int{}, tokens: map[*Req]int{}, blocks: map[*Req]int{},
		batch: map[*Instance][]*Req{}, pre: map[*Instance]modelPre{}}
}

// heldBlocks is the number of KV blocks r holds on x.
func heldBlocks(x *Instance, r *Req) int {
	a := x.KVOf(r)
	if a == nil {
		return 0
	}
	return a.Cap() / x.KV().BlockSize()
}

// hook wraps the hooks of the instance ins returns to feed the model.
func (m *eagerModel) hook(ins func() *Instance, hk *Hooks) {
	complete := hk.OnComplete
	hk.OnComplete = func(r *Req) {
		m.completed = append(m.completed, r)
		// A hook inside a pass's apply sees the batch as it stands there.
		sum := 0
		for _, q := range ins().running {
			sum += q.Ctx()
		}
		if got := ins().RunningShape().DecodeSumCtx; got != sum {
			m.t.Fatalf("%s: at %v's completion %s running context %d, scan %d", m.where, r, ins().Name(), got, sum)
		}
		if complete != nil {
			complete(r)
		}
	}
	hk.OnFirstToken = func(r *Req) {
		if m.gen[r] == 0 {
			m.gen[r] = 1
		}
		if r.Finished() {
			m.freed += heldBlocks(ins(), r) // released before the decode loop
		}
	}
	hk.OnIterationEnd = func() { m.applied = ins() }
	hk.OnDecodeStart = func(r *Req) { m.started = append(m.started, r) }
}

// do runs one operation and folds its effects into the model.
func (m *eagerModel) do(op func()) {
	for _, x := range m.inst {
		pre := modelPre{running: slices.Clone(x.running), free: x.KV().FreeBlocks(), iters: x.Iterations, stats: x.KV().Stats()}
		for _, r := range x.running {
			if r.Migrating {
				pre.migrating = append(pre.migrating, r)
			}
		}
		m.pre[x] = pre
	}
	m.completed, m.started, m.applied, m.freed = m.completed[:0], m.started[:0], nil, 0
	op()
	for _, x := range m.inst {
		pre := m.pre[x]
		if m.applied == x {
			m.replay(x)
		}
		if x.Iterations != pre.iters {
			m.batch[x] = slices.Clone(x.running)
			// The first decode step starts for every request at one token.
			var want []*Req
			for _, r := range x.running {
				if m.gen[r] == 1 && !r.Migrating {
					want = append(want, r)
				}
			}
			if !slices.Equal(m.started, want) {
				m.t.Fatalf("%s: %s started decoding %v, eager rule %v", m.where, x.Name(), m.started, want)
			}
		}
		for _, r := range x.running {
			if !slices.Contains(pre.running, r) {
				// Off every batch until now, so its KV count is exact.
				m.tokens[r], m.blocks[r] = x.KVOf(r).Tokens(), heldBlocks(x, r)
			}
		}
	}
}

// replay applies the eager rule to the decode pass x just applied.
func (m *eagerModel) replay(x *Instance) {
	t := m.t
	t.Helper()
	pre, batch := m.pre[x], m.batch[x]
	m.batch[x] = nil
	run := slices.Clone(pre.running)
	free := pre.free + m.freed
	var done []*Req
	var swaps, swapTokens, failed int
	for _, r := range batch {
		if !slices.Contains(run, r) {
			continue // left after the pass formed: its token is lost
		}
		m.gen[r]++
		if m.gen[r] >= r.W.OutputTokens {
			run = slices.DeleteFunc(run, func(q *Req) bool { return q == r })
			free += m.blocks[r]
			done = append(done, r)
			continue
		}
		ctx := r.W.PromptTokens + m.gen[r]
		for {
			need := x.KV().BlocksFor(ctx) - m.blocks[r]
			if need <= free {
				free -= max(need, 0)
				m.blocks[r] += max(need, 0)
				m.tokens[r] = ctx
				break
			}
			failed++
			// The latest admitted, sparing migrating requests if it can.
			vi := len(run) - 1
			for i := vi; i >= 0; i-- {
				if !slices.Contains(pre.migrating, run[i]) {
					vi = i
					break
				}
			}
			v := run[vi]
			if slices.Contains(batch, v) && vi < slices.Index(run, r) {
				m.passed++
			}
			run = slices.Delete(run, vi, vi+1)
			free += m.blocks[v]
			if v.Phase == PhaseSwapped { // else host space ran out: recompute
				swaps++
				swapTokens += m.tokens[v]
			}
			if v == r {
				break
			}
		}
	}
	if !slices.Equal(x.running, run) {
		t.Fatalf("%s: %s running %v, eager rule %v", m.where, x.Name(), x.running, run)
	}
	if got := x.KV().FreeBlocks(); got != free {
		t.Fatalf("%s: %s free blocks %d, eager rule %d", m.where, x.Name(), got, free)
	}
	var got []*Req
	for _, r := range m.completed {
		if slices.Contains(batch, r) {
			got = append(got, r)
		}
	}
	if !slices.Equal(got, done) {
		t.Fatalf("%s: %s completed %v, eager rule %v", m.where, x.Name(), got, done)
	}
	st := x.KV().Stats()
	if n, tok := st.SwapOutEvents-pre.stats.SwapOutEvents, st.SwapOutTokens-pre.stats.SwapOutTokens; n != uint64(swaps) || tok != uint64(swapTokens) {
		t.Fatalf("%s: %s swapped out %d requests, %d tokens; eager rule %d, %d", m.where, x.Name(), n, tok, swaps, swapTokens)
	}
	if n := st.FailedAllocs - pre.stats.FailedAllocs; n != uint64(failed) {
		t.Fatalf("%s: %s failed %d grows, eager rule %d", m.where, x.Name(), n, failed)
	}
}

// check compares every request's token count, and every running
// request's held blocks, with the model.
func (m *eagerModel) check(all []*Req) {
	m.t.Helper()
	for _, r := range all {
		if got, want := r.Generated(), m.gen[r]; got != want {
			m.t.Fatalf("%s: %v generated %d, eager rule %d", m.where, r, got, want)
		}
	}
	for _, x := range m.inst {
		for _, r := range x.running {
			if got, want := heldBlocks(x, r), m.blocks[r]; got != want {
				m.t.Fatalf("%s: %v holds %d blocks on %s, eager rule %d", m.where, r, got, x.Name(), want)
			}
		}
	}
}

// TestRunningMembershipMatchesScan drives seeded random sequences of
// submissions, running-batch moves, aborts, crashes and passes over two
// instances on one simulator. After every operation it checks that the
// O(1) membership marker agrees with a scan of each running batch, and
// that the lazy token counts, held blocks, swap-outs, failed grows and
// completion order agree with the eager per-token rule (eagerModel) —
// including a request removed and re-inserted on the same instance while
// a pass is in flight, which keeps that pass's token at its old position.
func TestRunningMembershipMatchesScan(t *testing.T) {
	var swaps, recomputes, crashes, moves, owed, passed int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newEagerModel(t)
		// A small GPU budget and a smaller swap space make passes evict:
		// first to host memory, then to recompute.
		h := newHarness(t, 2048, 512, nil, func(h *harness, hk *Hooks) {
			m.hook(func() *Instance { return h.ins }, hk)
		})
		var peer *Instance
		peerHooks := Hooks{}
		m.hook(func() *Instance { return peer }, &peerHooks)
		peer, err := NewInstance(h.s, Config{
			Name: "peer", CM: h.ins.CM(), KV: kvcache.MustNew(1024, 0, 16), MaxDecodeBatch: 8,
		}, peerHooks)
		if err != nil {
			t.Fatal(err)
		}
		inst := []*Instance{h.ins, peer}
		m.inst = inst
		var all []*Req
		var detached []*Req // removed from a running batch, owned by no queue
		nextID := uint64(1)
		fresh := func(prompt, gen int) *Req {
			r := req(nextID, prompt, 1+rng.Intn(40))
			nextID++
			if gen > 0 {
				r.PrefillDone = prompt
				r.SetGenerated(gen)
			}
			m.gen[r] = gen
			all = append(all, r)
			return r
		}
		// place gives r KV on x alone, reporting whether it fits.
		place := func(x *Instance, r *Req) bool {
			for _, o := range inst {
				if o != x {
					_ = o.KVOf(r).Release()
				}
			}
			return x.KVOf(r) != nil || x.AllocateKV(r, r.Ctx()+1) == nil
		}
		check := func() {
			t.Helper()
			for _, x := range inst {
				for _, r := range all {
					if got, want := r.runningOn == x, containsScan(x, r); got != want {
						t.Fatalf("%s: %v on %s: runningOn %v, scan %v", m.where, r, x.Name(), got, want)
					}
				}
				sum := 0
				for _, r := range x.running {
					if r.runningOn != x {
						t.Fatalf("%s: %v in %s.running has runningOn %p", m.where, r, x.Name(), r.runningOn)
					}
					sum += r.Ctx()
				}
				if got := x.RunningShape().DecodeSumCtx; got != sum {
					t.Fatalf("%s: %s running context %d, scan %d", m.where, x.Name(), got, sum)
				}
			}
			m.check(all)
		}
		for step := 0; step < 3000; step++ {
			m.where = fmt.Sprintf("seed %d step %d", seed, step)
			x := inst[rng.Intn(len(inst))]
			var op string
			switch k := rng.Intn(100); {
			case k < 15:
				op = "enqueue"
				m.do(func() { h.ins.EnqueuePrefill(fresh(16+rng.Intn(300), 0)) })
			case k < 27:
				op = "admit"
				r := fresh(16+rng.Intn(200), 1)
				if place(x, r) {
					m.do(func() { x.AdmitDecode(r) })
				}
			case k < 37:
				op = "insert"
				var r *Req
				if n := len(detached); n > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(n)
					r = detached[i]
					detached = append(detached[:i], detached[i+1:]...)
					moves++
				} else {
					r = fresh(16+rng.Intn(200), 1)
				}
				if place(x, r) {
					if slices.Contains(m.batch[x], r) {
						owed++ // back in the batch of the pass in flight
					}
					m.do(func() { x.InsertRunning(r) })
				}
			case k < 47:
				op = "remove"
				if len(all) == 0 {
					break
				}
				r := all[rng.Intn(len(all))]
				if n := len(x.running); n > 0 && rng.Intn(4) == 0 {
					r = x.running[rng.Intn(n)] // often one of a pass in flight
				}
				want := containsScan(x, r)
				var got bool
				m.do(func() { got = x.RemoveRunning(r) })
				if got != want {
					t.Fatalf("seed %d step %d: RemoveRunning = %v, scan said %v", seed, step, got, want)
				}
				if want {
					detached = append(detached, r)
					if tok := x.KVOf(r).Tokens(); tok != m.tokens[r] {
						t.Fatalf("seed %d step %d: %v left %s with %d KV tokens, eager rule %d",
							seed, step, r, x.Name(), tok, m.tokens[r])
					}
				}
			case k < 52:
				op = "abort"
				if len(all) == 0 {
					break
				}
				r := all[rng.Intn(len(all))]
				if r.Phase == PhaseDone || r.Phase == PhaseAborted {
					break
				}
				r.Phase = PhaseAborted
				m.do(func() {
					for _, o := range inst {
						o.Abort(r)
					}
				})
				detached = removeReq(detached, r)
			case k < 54:
				op = "crash"
				m.do(func() { x.Crash() })
				m.batch[x] = nil // the pass in flight never applies
				crashes++
			case k < 57:
				op = "restore"
				m.do(x.Restore)
			case k < 62:
				op = "migrating"
				if n := len(x.running); n > 0 {
					i := rng.Intn(n)
					if rng.Intn(2) == 0 {
						x.running[i].Migrating = !x.running[i].Migrating
						break
					}
					// A migrating tail leaves the LIFO rule only victims
					// ahead of a request that needs a block.
					for _, r := range x.running[i:] {
						r.Migrating = true
					}
				}
			default:
				op = "step"
				for n := 1 + rng.Intn(20); n > 0; n-- {
					more := false
					m.do(func() { more = h.s.Step() })
					if !more {
						break
					}
				}
			}
			m.where += " (" + op + ")"
			check()
		}
		swaps += int(h.kv.Stats().SwapOutEvents)
		recomputes += int(h.ins.Recomputes + peer.Recomputes)
		passed += m.passed
	}
	if swaps == 0 || recomputes == 0 || crashes == 0 || moves == 0 || owed == 0 || passed == 0 {
		t.Errorf("sequence too tame: %d swap-outs, %d recomputes, %d crashes, %d re-inserts, %d owed tokens, %d passed victims",
			swaps, recomputes, crashes, moves, owed, passed)
	}
}

// decodeHarness is a decode-only instance on kvTokens of GPU KV whose
// passes and completions the test can follow.
func decodeHarness(t *testing.T, kvTokens int) (h *harness, applied *int) {
	applied = new(int)
	h = newHarness(t, kvTokens, 1<<20, func(c *Config) { c.AllowPrefill = false },
		func(h *harness, hk *Hooks) { hk.OnIterationEnd = func() { *applied++ } })
	return h, applied
}

// running puts a request that has generated gen tokens into h's running
// batch with KV for kvTokens.
func (h *harness) running(t *testing.T, id uint64, prompt, gen, output, kvTokens int) *Req {
	t.Helper()
	r := req(id, prompt, output)
	r.PrefillDone = prompt
	r.SetGenerated(gen)
	if err := h.ins.AllocateKV(r, kvTokens); err != nil {
		t.Fatal(err)
	}
	h.ins.InsertRunning(r)
	return r
}

// TestReinsertedRequestKeepsItsToken: a request removed and re-inserted
// on the same instance while a pass is in flight was in the batch when the
// pass formed and is in it when it applies, so it gains the pass's token
// at its old position; afterwards it runs at its new place, the end of the
// batch.
func TestReinsertedRequestKeepsItsToken(t *testing.T) {
	h, applied := decodeHarness(t, 1<<20)
	a := h.running(t, 1, 100, 1, 4, 102)
	b := h.running(t, 2, 100, 1, 4, 102)
	for h.ins.Iterations < 1 {
		h.s.Step()
	}
	h.ins.RemoveRunning(a)
	h.ins.InsertRunning(a)
	for *applied < 1 {
		h.s.Step()
	}
	if a.Generated() != 2 || b.Generated() != 2 {
		t.Fatalf("after the pass: a generated %d, b %d; want 2 each", a.Generated(), b.Generated())
	}
	h.s.RunAll()
	if len(h.completed) != 2 || h.completed[0] != 2 || h.completed[1] != 1 {
		t.Errorf("completion order %v, want [2 1] (batch order after the re-insert)", h.completed)
	}
}

// TestVictimPassedByTheVisitKeepsItsToken: a request the pass has already
// given its token when a later request's grow evicts it keeps the token,
// and swaps out the KV grown for it. Here the only request the LIFO rule
// may take is ahead of the request that needs the block: the two behind
// are migrating.
func TestVictimPassedByTheVisitKeepsItsToken(t *testing.T) {
	h, applied := decodeHarness(t, 21*16) // three requests of 7 blocks fill it
	b := h.running(t, 1, 100, 1, 50, 102)
	r := h.running(t, 2, 110, 1, 50, 112) // crosses its 7th block on the second pass
	c := h.running(t, 3, 100, 1, 50, 102)
	r.Migrating, c.Migrating = true, true
	for *applied < 2 {
		h.s.Step()
	}
	if b.Phase != PhaseSwapped || b.Generated() != 3 {
		t.Fatalf("victim %v, want swapped with 3 tokens", b)
	}
	if got := h.kv.Stats().SwapOutTokens; got != 103 {
		t.Errorf("swapped out %d tokens, want 103 (the victim's context with the pass's token)", got)
	}
	if r.Generated() != 3 || c.Generated() != 3 || h.ins.NumRunning() != 2 {
		t.Errorf("after the pass: %v, %v, %d running", r, c, h.ins.NumRunning())
	}
	// The victim's context leaves the running sum as the sum counted it.
	if got, want := h.ins.RunningShape().DecodeSumCtx, r.Ctx()+c.Ctx(); got != want {
		t.Errorf("running context %d, scan %d", got, want)
	}
}

// TestGrowHandleFollowsTheRequest: a decoding request keeps growing its
// KV after it moves to another instance's manager (whether or not the old
// copy stays allocated, as a backup does) and after its KV is released
// and allocated anew on the same manager, because the instance finds its
// allocation through the request's holder.
func TestGrowHandleFollowsTheRequest(t *testing.T) {
	h := newHarness(t, 1<<20, 0, func(c *Config) { c.AllowPrefill = false },
		func(_ *harness, hk *Hooks) { *hk = Hooks{} })
	peer, err := NewInstance(h.s, Config{Name: "peer", CM: h.ins.CM(), KV: kvcache.MustNew(1<<20, 0, 16)}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	r := req(1, 100, 1000)
	r.PrefillDone = 100
	r.SetGenerated(1)
	hop := func(from, to *Instance, keep bool) {
		t.Helper()
		if from != nil {
			from.RemoveRunning(r)
		}
		if from != nil && !keep {
			if err := from.KVOf(r).Release(); err != nil {
				t.Fatal(err)
			}
		}
		if err := to.AllocateKV(r, r.Ctx()+1); err != nil {
			t.Fatal(err)
		}
		to.InsertRunning(r)
		start := r.Generated()
		for i := 0; i < 5; i++ {
			for want := to.Iterations + 1; to.Iterations < want; {
				if !h.s.Step() {
					t.Fatalf("%s went idle", to.Name())
				}
			}
			// The held blocks cover the context and are never more than
			// the next token needs; the token count grows lazily.
			kv := to.KV()
			if got := heldBlocks(to, r); r.runningOn != to || got < kv.BlocksFor(r.Ctx()) || got > kv.BlocksFor(r.Ctx()+1) {
				t.Fatalf("on %s: running %v, %d KV blocks, context %d (evictions %d)",
					to.Name(), r.runningOn == to, got, r.Ctx(), r.Evictions)
			}
		}
		if r.Generated() < start+4 {
			t.Fatalf("on %s: generated %d tokens over 5 passes", to.Name(), r.Generated()-start)
		}
	}
	hop(nil, h.ins, false)
	hop(h.ins, peer, false)
	hop(peer, h.ins, true)   // the peer keeps a live copy
	hop(h.ins, h.ins, false) // same manager, same ID, new allocation
}

// BenchmarkDecodePass measures one steady decode pass: 64 running
// requests on a decode-only instance, none close to finishing. CI gates
// it at 0 allocs/op: the pass plan and events are recycled, the roofline
// keeps no state, and a pass visits only the requests whose next token
// crosses a KV block, growing each through the allocation its holder has
// on the instance.
func BenchmarkDecodePass(b *testing.B) { benchDecodePass(b, 64) }

// BenchmarkDecodePassWide is BenchmarkDecodePass with 512 running
// requests, where a pass that visited every request would cost eight
// times as much.
func BenchmarkDecodePassWide(b *testing.B) { benchDecodePass(b, 512) }

func benchDecodePass(b *testing.B, running int) {
	h := newHarness(b, 1<<30, 0, func(c *Config) { c.AllowPrefill = false },
		func(_ *harness, hk *Hooks) { *hk = Hooks{} })
	for i := 1; i <= running; i++ {
		r := req(uint64(i), 512, 1<<30)
		r.PrefillDone = 512
		r.SetGenerated(2)
		if err := h.ins.AllocateKV(r, r.Ctx()+1); err != nil {
			b.Fatal(err)
		}
		h.ins.InsertRunning(r)
	}
	pass := func() {
		for want := h.ins.Iterations + 1; h.ins.Iterations < want; {
			h.s.Step()
		}
	}
	for i := 0; i < 64; i++ {
		pass() // fill the plan, event and due-list free lists
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// TestPassEventCount pins how many kernel events a pass costs: one when
// its initiation interval is its latency (PP-1), two for a pure-prefill
// PP-2 pass, whose engine frees after one stage but whose effects land
// at the full latency.
func TestPassEventCount(t *testing.T) {
	for _, tc := range []struct{ pp, events int }{{1, 1}, {2, 2}} {
		h := newHarness(t, 1<<20, 0, func(c *Config) {
			c.CM = perf.MustNew(tinyModel(), gpu.A800, perf.Placement{TP: 1, PP: tc.pp}, gpu.NVLinkBridge, perf.DefaultParams())
		}, nil)
		h.ins.EnqueuePrefill(req(1, 512, 4))
		if !h.s.Step() || h.ins.Iterations != 1 {
			t.Fatalf("PP-%d: the first kick did not start a pass", tc.pp)
		}
		if got := h.s.Pending(); got != tc.events {
			t.Errorf("PP-%d: a pure-prefill pass scheduled %d events, want %d", tc.pp, got, tc.events)
		}
		h.s.RunAll()
		if len(h.completed) != 1 {
			t.Fatalf("PP-%d: completed %d of 1", tc.pp, len(h.completed))
		}
	}
}
