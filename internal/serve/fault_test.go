package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"windserve/internal/engine"
	"windserve/internal/fault"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// mustPlan parses a fault spec or fails the test.
func mustPlan(t *testing.T, seed int64, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = seed
	return p
}

// checkConservation asserts the request-lifecycle partition: every
// submitted request is in exactly one terminal (or unfinished) state.
func checkConservation(t *testing.T, name string, res *Result, submitted int) {
	t.Helper()
	got := len(res.Records) + res.Aborted + res.Rejected + res.Unfinished
	if got != submitted {
		t.Fatalf("%s: %d completed + %d aborted + %d rejected + %d unfinished = %d, want %d submitted",
			name, len(res.Records), res.Aborted, res.Rejected, res.Unfinished, got, submitted)
	}
	seen := map[uint64]bool{}
	for _, r := range res.Records {
		if seen[r.ID] {
			t.Fatalf("%s: request %d completed twice", name, r.ID)
		}
		seen[r.ID] = true
	}
}

// TestFaultRunsAreDeterministic: the same trace under the same plan must
// produce bit-identical outcomes, twice, for every system.
func TestFaultRunsAreDeterministic(t *testing.T) {
	cfg := cfg13B(t)
	cfg.NumDecode = 2
	cfg.Faults = mustPlan(t, 7, "crash:d0@20; slow:p0@5x2+15; degrade@10x0.3+20; cancel@25x0.25")
	cfg.Shed = ShedPolicy{MaxQueueDepth: 64, TTFTDeadline: sim.Seconds(30)}
	reqs := trace13B(2, 120, 11)
	for name, run := range allSystems() {
		a, err := run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.Records) != len(b.Records) || a.Aborted != b.Aborted ||
			a.Rejected != b.Rejected || a.Recovered != b.Recovered ||
			a.Unfinished != b.Unfinished || a.Elapsed != b.Elapsed {
			t.Fatalf("%s: runs diverged:\n  a: %v\n  b: %v", name, a, b)
		}
		for i := range a.Records {
			if a.Records[i].ID != b.Records[i].ID || a.Records[i].Completion != b.Records[i].Completion {
				t.Fatalf("%s: record %d diverged between identical runs", name, i)
			}
		}
	}
}

// TestDecodeCrashRecovered: a permanent mid-trace decode crash with a
// surviving peer. Every request must still reach a terminal state, the
// orphans must be recovered, and no KV may leak.
func TestDecodeCrashRecovered(t *testing.T) {
	cfg := cfg13B(t)
	cfg.NumDecode = 2
	cfg.Faults = mustPlan(t, 1, "crash:d0@25")
	reqs := trace13B(1.5, 100, 3)
	for name, run := range allSystems() {
		res, err := run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkConservation(t, name, res, len(reqs))
		if res.Unfinished != 0 {
			t.Errorf("%s: %d requests never finished after decode crash", name, res.Unfinished)
		}
		if name != "vLLM" && res.Recovered == 0 {
			t.Errorf("%s: decode crash at t=25 orphaned nothing (suspicious)", name)
		}
		if res.Unfinished == 0 && res.LiveKVBlocks != 0 {
			t.Errorf("%s: %d KV blocks leaked after crash recovery", name, res.LiveKVBlocks)
		}
	}
}

// TestPrefillCrashRecovered: same for a prefill instance, with restore.
func TestPrefillCrashRecovered(t *testing.T) {
	cfg := cfg13B(t)
	cfg.NumPrefill = 2
	cfg.Faults = mustPlan(t, 1, "crash:p0@15+30")
	reqs := trace13B(1.5, 100, 5)
	for name, run := range allSystems() {
		res, err := run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkConservation(t, name, res, len(reqs))
		if res.Unfinished != 0 {
			t.Errorf("%s: %d requests never finished after prefill crash", name, res.Unfinished)
		}
		if res.Unfinished == 0 && res.LiveKVBlocks != 0 {
			t.Errorf("%s: %d KV blocks leaked", name, res.LiveKVBlocks)
		}
	}
}

// TestSingleInstanceCrashAndRestore: with nothing to fail over to, work
// parks until the instance restores, then drains.
func TestSingleInstanceCrashAndRestore(t *testing.T) {
	cfg := cfg13B(t)
	cfg.Faults = mustPlan(t, 1, "crash:d0@20+10; crash:p0@40+10")
	reqs := trace13B(1, 60, 9)
	for name, run := range allSystems() {
		res, err := run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkConservation(t, name, res, len(reqs))
		if res.Unfinished != 0 {
			t.Errorf("%s: %d requests stuck after restore", name, res.Unfinished)
		}
	}
}

// TestAdmissionControlSheds: a tight queue bound under heavy load must
// reject arrivals (distinct terminal state) while the rest complete.
func TestAdmissionControlSheds(t *testing.T) {
	cfg := cfg13B(t)
	cfg.Shed.MaxQueueDepth = 2
	reqs := trace13B(8, 150, 21)
	for name, run := range allSystems() {
		res, err := run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkConservation(t, name, res, len(reqs))
		if res.Rejected == 0 {
			t.Errorf("%s: queue bound 2 at 8 req/s/GPU shed nothing", name)
		}
		if res.Aborted != 0 {
			t.Errorf("%s: admission control alone aborted %d in-flight requests", name, res.Aborted)
		}
	}
}

// TestTTFTDeadlineAborts: an aggressive client timeout under overload
// must abort queued requests that never produced a first token.
func TestTTFTDeadlineAborts(t *testing.T) {
	cfg := cfg13B(t)
	cfg.Shed.TTFTDeadline = sim.Seconds(1)
	reqs := trace13B(12, 150, 22)
	for name, run := range allSystems() {
		res, err := run(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkConservation(t, name, res, len(reqs))
		if res.Aborted == 0 {
			t.Errorf("%s: 1s TTFT deadline at 12 req/s/GPU aborted nothing", name)
		}
		for _, r := range res.Records {
			if r.TTFT() > sim.Seconds(1) {
				t.Errorf("%s: request %d completed with TTFT %v past the deadline", name, r.ID, r.TTFT())
				break
			}
		}
	}
}

// TestCancelFaultPicksSameVictims: the seeded cancellation must abort the
// same fraction and the same request ids on repeated runs.
func TestCancelFaultPicksSameVictims(t *testing.T) {
	cfg := cfg13B(t)
	cfg.Faults = mustPlan(t, 42, "cancel@20x0.4")
	reqs := trace13B(2, 100, 17)
	victims := func() map[uint64]bool {
		res, err := RunWindServe(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborted == 0 {
			t.Fatal("cancel@20x0.4 aborted nothing")
		}
		got := map[uint64]bool{}
		for _, r := range res.Records {
			got[r.ID] = true
		}
		return got
	}
	a, b := victims(), victims()
	if len(a) != len(b) {
		t.Fatalf("completion sets differ: %d vs %d", len(a), len(b))
	}
	for id := range a {
		if !b[id] {
			t.Fatalf("request %d completed in run A but not run B", id)
		}
	}
}

// TestDegradedLinksSlowDistServe: serial post-prefill transfers on a
// 10%-bandwidth interconnect must lengthen the decode queue delay.
func TestDegradedLinksSlowDistServe(t *testing.T) {
	cfg := cfg13B(t)
	reqs := trace13B(1.5, 80, 31)
	clean, err := RunDistServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = mustPlan(t, 1, "degrade@0x0.05")
	slow, err := RunDistServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Summary.DecodeQueueMean <= clean.Summary.DecodeQueueMean {
		t.Errorf("degraded links did not lengthen transfers: clean %v, degraded %v",
			clean.Summary.DecodeQueueMean, slow.Summary.DecodeQueueMean)
	}
}

// TestSlowdownHurtsLatency: a 3x GPU slowdown on the only prefill
// instance must raise TTFT.
func TestSlowdownHurtsLatency(t *testing.T) {
	cfg := cfg13B(t)
	reqs := trace13B(1.5, 80, 33)
	clean, err := RunDistServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = mustPlan(t, 1, "slow:p0@0x3")
	slow, err := RunDistServe(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Summary.TTFTMean <= clean.Summary.TTFTMean {
		t.Errorf("slowdown did not raise TTFT: clean %v, slowed %v",
			clean.Summary.TTFTMean, slow.Summary.TTFTMean)
	}
}

// TestRecoverDecodeOrphanUsesBackup unit-tests the backup-restore path:
// a surviving snapshot promotes in place, generation rolls back to it,
// and the request resumes decoding on the backup's instance.
func TestRecoverDecodeOrphanUsesBackup(t *testing.T) {
	w := newWindStateForTest(t)
	q := engine.NewReq(workload.Request{ID: 5, PromptTokens: 1000, OutputTokens: 300})
	q.PrefillDone = 1000
	q.SetGenerated(200)
	q.Phase = engine.PhaseDecoding
	w.r.live[q.W.ID] = q
	w.r.rec.Arrive(q.W.ID, q.W.PromptTokens, q.W.OutputTokens, 0)
	q.BackupTokens = 1100 // snapshot taken at generated=100
	w.backupAt[q.W.ID] = 0
	pkv := w.d.prefills[0].KV()
	if err := pkv.AllocateBackup(q.KVID(), 1100); err != nil {
		t.Fatal(err)
	}
	w.recoverDecodeOrphan(q)
	if !pkv.Has(q.KVID()) || pkv.IsBackup(q.KVID()) {
		t.Fatal("backup was not promoted to a working copy")
	}
	if q.Generated() != 100 {
		t.Errorf("generation not rolled back to the snapshot: %d, want 100", q.Generated())
	}
	if q.BackupTokens != 0 || len(w.backupAt) != 0 {
		t.Error("backup bookkeeping not cleared")
	}
	if w.d.prefills[0].NumRunning() != 1 {
		t.Error("request not resumed on the backup's instance")
	}
	if len(w.r.recovered) != 1 {
		t.Error("recovery not counted")
	}
}

// TestRecoverDecodeOrphanScratch: without a backup the orphan loses all
// progress and re-enters dispatch as a fresh prefill.
func TestRecoverDecodeOrphanScratch(t *testing.T) {
	w := newWindStateForTest(t)
	q := engine.NewReq(workload.Request{ID: 6, PromptTokens: 800, OutputTokens: 100})
	q.PrefillDone = 800
	q.SetGenerated(40)
	q.Phase = engine.PhaseDecoding
	w.r.live[q.W.ID] = q
	w.r.rec.Arrive(q.W.ID, q.W.PromptTokens, q.W.OutputTokens, 0)
	w.recoverDecodeOrphan(q)
	if q.Generated() != 0 || q.PrefillDone != 0 {
		t.Errorf("scratch recovery kept progress: prefill=%d generated=%d", q.PrefillDone, q.Generated())
	}
	queued := 0
	for _, ins := range w.d.prefills {
		queued += ins.NumQueued()
	}
	for _, ins := range w.d.decodes {
		queued += ins.NumQueued() + ins.PendingAdmits() + len(ins.Running())
	}
	if queued != 1 {
		t.Errorf("orphan not resubmitted exactly once (found %d)", queued)
	}
	if len(w.r.recovered) != 1 {
		t.Error("recovery not counted")
	}
}

// TestPropertyInvariantsUnderFaults fuzzes all systems under a rotating
// set of fault plans and shed policies: conservation must hold and no KV
// (including backups) may outlive its requests. The prefix-cache rows
// replay a chat trace with caching on (flat and tiered) through the same
// crash recovery; every request must finish or abort. Cached prefix
// blocks legitimately outlive their requests, so the leak check applies
// to the prefix-off rows only.
func TestPropertyInvariantsUnderFaults(t *testing.T) {
	plans := []string{
		"crash:d0@15",
		"crash:p0@10+20; cancel@30x0.3",
		"crash:d1@12; crash:p1@18+10; degrade@5x0.2+30",
		"slow:d0@5x2.5+25; cancel@10x0.15; cancel@20x0.15",
	}
	chat, err := workload.ScenarioByName("chat")
	if err != nil {
		t.Fatal(err)
	}
	for pi, spec := range plans {
		for _, prefix := range []bool{false, true} {
			cfg := cfg13B(t)
			cfg.NumPrefill, cfg.NumDecode = 2, 2
			cfg.Shed = ShedPolicy{MaxQueueDepth: 128, TTFTDeadline: sim.Seconds(60)}
			cfg.Faults = mustPlan(t, int64(pi+1), spec)
			reqs, row := trace13B(1.5, 90, int64(100+pi)), spec
			if prefix {
				cfg.Prefix = PrefixPolicy{Enabled: true, Tiered: pi%2 == 1}
				reqs, row = nil, fmt.Sprintf("%s prefix=%+v", spec, cfg.Prefix)
				src := chat.Source(90, 12, int64(100+pi))
				for r, ok := src.Next(); ok; r, ok = src.Next() {
					reqs = append(reqs, r)
				}
			}
			for name, run := range allSystems() {
				res, err := run(cfg, reqs)
				if err != nil {
					t.Fatalf("plan %q %s: %v", row, name, err)
				}
				checkConservation(t, name+"/"+row, res, len(reqs))
				if prefix && res.Unfinished != 0 {
					t.Errorf("plan %q %s: %d requests never finished", row, name, res.Unfinished)
				}
				if !prefix && res.Unfinished == 0 && res.LiveKVBlocks != 0 {
					t.Errorf("plan %q %s: %d KV blocks leaked", row, name, res.LiveKVBlocks)
				}
			}
		}
	}
}

// TestConfigValidationRejectsBadValues covers the hardened validation:
// every value fillDefaults would otherwise mask is rejected by every
// system, with an error naming the field (field "" skips the name check).
func TestConfigValidationRejectsBadValues(t *testing.T) {
	base := cfg13B(t)
	cases := []struct {
		field string
		mut   func(*Config)
	}{
		{"NumPrefill", func(c *Config) { c.NumPrefill = -1 }},
		{"NumDecode", func(c *Config) { c.NumDecode = -2 }},
		{"BlockSize", func(c *Config) { c.BlockSize = 0 }},
		{"MaxPrefillTokens", func(c *Config) { c.MaxPrefillTokens = -1 }},
		{"ChunkSize", func(c *Config) { c.ChunkSize = -512 }},
		{"MaxDecodeBatch", func(c *Config) { c.MaxDecodeBatch = -1 }},
		{"Horizon", func(c *Config) { c.Horizon = -sim.Seconds(1) }},
		{"Stream.MaxRecords", func(c *Config) { c.Stream = StreamPolicy{Enabled: true, MaxRecords: -1} }},
		{"Wind.ThresholdFrac", func(c *Config) { c.Wind.ThresholdFrac = -0.5 }},
		{"Shed.MaxQueueDepth", func(c *Config) { c.Shed.MaxQueueDepth = -1 }},
		{"Shed.TTFTDeadline", func(c *Config) { c.Shed.TTFTDeadline = -sim.Seconds(1) }},
		// Non-finite floats are out of range too.
		{"Shed.TTFTDeadline", func(c *Config) { c.Shed.TTFTDeadline = sim.Duration(math.Inf(1)) }},
		{"Shed.TTFTDeadline", func(c *Config) { c.Shed.TTFTDeadline = sim.Duration(math.NaN()) }},
		{"Horizon", func(c *Config) { c.Horizon = sim.Duration(math.NaN()) }},
		{"Horizon", func(c *Config) { c.Horizon = sim.Duration(math.Inf(1)) }},
		{"Wind.ThresholdFrac", func(c *Config) { c.Wind.ThresholdFrac = math.NaN() }},
		{"CPUOverhead", func(c *Config) { c.Params.CPUOverhead = -1 }},
		{"", func(c *Config) { // fault targets a missing instance
			c.Faults = &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Role: fault.RoleDecode, Instance: 5, At: 1}}}
		}},
		{"", func(c *Config) { // invalid fault factor
			c.Faults = &fault.Plan{Events: []fault.Event{{Kind: fault.Slowdown, Factor: 0.5, At: 1}}}
		}},
	}
	reqs := trace13B(1, 3, 1)
	for i, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		for name, run := range allSystems() {
			_, err := run(cfg, reqs)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s: case %d (%s): err = %v, want one naming the field", name, i, tc.field, err)
			}
		}
	}
	// A large-but-legal ThresholdFrac stays accepted (Fig. 5 sweeps it).
	cfg := base
	cfg.Wind.ThresholdFrac = 40
	if _, err := RunWindServe(cfg, trace13B(1, 3, 1)); err != nil {
		t.Errorf("ThresholdFrac 40 rejected: %v", err)
	}
}

// TestPrefillCrashResetsTransferPendingOrphan pins the one reset rule for
// an orphan that had finished prefill: with decode KV held full, two
// prefilled requests (the second a prefix-cache hit on the first) wait in
// transferPending when their prefill instance crashes. Both lose the KV
// their first token and prefix hit lived in, so both must come back with
// Generated, PrefixHit, PrefillDone and BackupTokens at zero — the state
// a WindServe orphan re-prefills from.
func TestPrefillCrashResetsTransferPendingOrphan(t *testing.T) {
	cfg := cfg13B(t)
	cfg.Prefix = PrefixPolicy{Enabled: true}
	crashAt := sim.Seconds(5)
	cfg.Faults = mustPlan(t, 1, "crash:p0@5")
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newPD(r, r.cfg, pdHooks{})
	if err != nil {
		t.Fatal(err)
	}
	r.onAbort = d.abort
	if err := installPDFaults(r, d); err != nil {
		t.Fatal(err)
	}
	dkv := d.decodes[0].KV()
	if err := dkv.Allocate(1<<40, dkv.TotalBlocks()*dkv.BlockSize()); err != nil {
		t.Fatal(err)
	}
	var orphans []*engine.Req
	for id := uint64(1); id <= 2; id++ {
		q := engine.NewReq(workload.Request{ID: id, PromptTokens: 512, OutputTokens: 20,
			PrefixGroup: 9, PrefixTokens: 256})
		r.live[id] = q
		r.rec.Arrive(id, q.W.PromptTokens, q.W.OutputTokens, r.s.Now())
		d.prefillRR(q)
		for q.Phase != engine.PhaseTransferring && r.s.Step() {
		}
		if q.Phase != engine.PhaseTransferring || q.Generated() != 1 {
			t.Fatalf("req%d: not parked prefilled in transferPending: %v", id, q)
		}
		orphans = append(orphans, q)
	}
	if len(d.transferPending) != 2 || orphans[1].PrefixHit == 0 {
		t.Fatalf("setup: %d pending, second prefix hit %d; want 2 pending and a hit",
			len(d.transferPending), orphans[1].PrefixHit)
	}
	r.s.Run(sim.Time(0).Add(crashAt))
	if len(d.transferPending) != 0 {
		t.Fatalf("%d orphans left in transferPending after the crash", len(d.transferPending))
	}
	for _, q := range orphans {
		if q.Generated() != 0 || q.PrefixHit != 0 || q.PrefillDone != 0 || q.BackupTokens != 0 {
			t.Errorf("req%d re-prefills with stale progress: generated=%d prefixHit=%d prefillDone=%d backup=%d",
				q.W.ID, q.Generated(), q.PrefixHit, q.PrefillDone, q.BackupTokens)
		}
		if q.Phase != engine.PhaseWaiting || !r.recovered[q.W.ID] {
			t.Errorf("req%d not requeued as a recovered prefill: %v, recovered=%v", q.W.ID, q, r.recovered[q.W.ID])
		}
	}
}
