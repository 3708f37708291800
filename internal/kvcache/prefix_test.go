package kvcache

import (
	"errors"
	"testing"
)

// TestSwapInFailureCounter is the satellite regression: a swap-in
// deferred by transient GPU pressure must count as SwapInFailures, not
// FailedAllocs — shedding heuristics read the latter as admission
// failures.
func TestSwapInFailureCounter(t *testing.T) {
	m := mustMgr(t, 160, 320) // 10 GPU blocks
	a := mustAlloc(t, m, 1, 64)
	if _, err := a.SwapOut(); err != nil {
		t.Fatal(err)
	}
	mustAlloc(t, m, 2, 160)
	if _, err := a.SwapIn(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("SwapIn under pressure = %v, want ErrNoSpace", err)
	}
	st := m.Stats()
	if st.SwapInFailures != 1 {
		t.Errorf("SwapInFailures = %d, want 1", st.SwapInFailures)
	}
	if st.FailedAllocs != 0 {
		t.Errorf("FailedAllocs = %d, want 0: swap-in retries are not admission failures", st.FailedAllocs)
	}
	// A true admission failure still lands in FailedAllocs.
	if _, err := m.Allocate(new(Holder), 3, 32); !errors.Is(err, ErrNoSpace) {
		t.Fatal(err)
	}
	if st := m.Stats(); st.FailedAllocs != 1 || st.SwapInFailures != 1 {
		t.Errorf("stats = %+v, want FailedAllocs 1, SwapInFailures 1", st)
	}
}

// prefixBlocks returns the cached shared blocks on (GPU, host) tiers.
func prefixBlocks(m *Manager) (gpu, host int) {
	for _, b := range prefixMap(m) {
		if b.onGPU {
			gpu++
		} else {
			host++
		}
	}
	return gpu, host
}

func TestPrefixSharing(t *testing.T) {
	m := mustMgr(t, 320, 0) // 20 blocks
	m.EnablePrefixCache(false)

	_, acq, err := m.AllocatePrefixed(new(Holder), 1, 100, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if acq.HitTokens != 0 || acq.MissTokens != 100 {
		t.Fatalf("first acquire = %+v, want all-miss", acq)
	}
	// 4 shared + 3 private blocks for the 100-token context.
	if m.UsedBlocks() != 7 {
		t.Fatalf("used = %d, want 7", m.UsedBlocks())
	}

	_, acq, err = m.AllocatePrefixed(new(Holder), 2, 100, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if acq.HitTokens != 64 || acq.MissTokens != 36 || acq.RestoredTokens != 0 {
		t.Fatalf("second acquire = %+v, want 64-token hit", acq)
	}
	// Only the 3 private blocks are new.
	if m.UsedBlocks() != 10 {
		t.Fatalf("used = %d, want 10", m.UsedBlocks())
	}
	if got := m.PeekPrefix(7, 64); got != 64 {
		t.Fatalf("PeekPrefix = %d, want 64", got)
	}
	if got := m.PeekPrefix(8, 64); got != 0 {
		t.Fatalf("PeekPrefix(other group) = %d, want 0", got)
	}
	st := m.Stats()
	if st.PrefixLookups != 2 || st.PrefixHitTokens != 64 || st.PrefixMissTokens != 136 {
		t.Fatalf("stats = %+v", st)
	}
	if r := st.PrefixHitRatio(); r <= 0.31 || r >= 0.33 { // 64/200
		t.Fatalf("hit ratio = %v", r)
	}
}

// TestPrefixReleaseKeepsSharedBlocks: releasing one sharer must not free
// blocks another request still references, and releasing the last sharer
// leaves them cached for future hits.
func TestPrefixReleaseKeepsSharedBlocks(t *testing.T) {
	m := mustMgr(t, 320, 0)
	m.EnablePrefixCache(false)
	var a [3]*Alloc
	for id := RequestID(1); id <= 2; id++ {
		var err error
		if a[id], _, err = m.AllocatePrefixed(new(Holder), id, 100, 7, 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := a[1].Release(); err != nil {
		t.Fatal(err)
	}
	// Sharer 2 still holds the chain: 4 shared + its 3 private blocks.
	if m.UsedBlocks() != 7 {
		t.Fatalf("used after one release = %d, want 7", m.UsedBlocks())
	}
	if got := m.PeekPrefix(7, 64); got != 64 {
		t.Fatalf("shared blocks freed with a sharer in flight: peek = %d", got)
	}
	if err := a[2].Grow(120); err != nil { // sharer 2 keeps decoding fine
		t.Fatal(err)
	}
	if err := a[2].Release(); err != nil {
		t.Fatal(err)
	}
	// Last sharer gone: chain stays cached, only private blocks freed.
	if gpu, host := prefixBlocks(m); gpu != 4 || host != 0 {
		t.Fatalf("cached blocks = %d/%d, want 4/0", gpu, host)
	}
	if m.UsedBlocks() != 4 {
		t.Fatalf("used after both release = %d, want 4", m.UsedBlocks())
	}
}

// TestPrefixEvictionRespectsRefs: eviction must never reclaim a block
// with in-flight sharers, even under hard GPU pressure; once the sharer
// releases, LRU eviction trims the chain from the tail.
func TestPrefixEvictionRespectsRefs(t *testing.T) {
	m := mustMgr(t, 128, 0) // 8 blocks
	m.EnablePrefixCache(false)
	a, _, err := m.AllocatePrefixed(new(Holder), 1, 65, 9, 64) // 4 shared + 1 private
	if err != nil {
		t.Fatal(err)
	}
	mustAlloc(t, m, 2, 48) // 3 blocks, GPU now full
	if _, err := m.Allocate(new(Holder), 3, 16); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("alloc over referenced blocks = %v, want ErrNoSpace", err)
	}
	if st := m.Stats(); st.PrefixEvictions != 0 {
		t.Fatalf("evicted %d referenced blocks", st.PrefixEvictions)
	}
	if got := m.PeekPrefix(9, 64); got != 64 {
		t.Fatalf("referenced chain damaged: peek = %d", got)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	// refs==0 now: the same allocation succeeds by evicting LRU blocks,
	// and the chain is trimmed strictly from the tail.
	mustAlloc(t, m, 3, 32)
	if st := m.Stats(); st.PrefixEvictions != 1 {
		t.Fatalf("PrefixEvictions = %d, want 1", st.PrefixEvictions)
	}
	if got := m.PeekPrefix(9, 64); got != 48 {
		t.Fatalf("peek after tail eviction = %d, want 48", got)
	}
}

// TestPrefixResetDropsPoolKeepsStats: a crash wipes the pool on both
// tiers but cumulative statistics survive, as for every other counter.
func TestPrefixResetDropsPoolKeepsStats(t *testing.T) {
	m := mustMgr(t, 320, 320)
	m.EnablePrefixCache(true)
	a, _, err := m.AllocatePrefixed(new(Holder), 1, 100, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AllocatePrefixed(new(Holder), 2, 100, 7, 64); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	if before.PrefixHitTokens == 0 {
		t.Fatal("setup produced no hits")
	}
	m.Reset()
	if gpu, host := prefixBlocks(m); gpu != 0 || host != 0 {
		t.Fatalf("pool survived reset: %d/%d blocks", gpu, host)
	}
	if m.PeekPrefix(7, 64) != 0 {
		t.Fatal("peek found blocks after reset")
	}
	if m.FreeBlocks() != m.TotalBlocks() {
		t.Fatalf("free = %d, want %d", m.FreeBlocks(), m.TotalBlocks())
	}
	if a.LiveOn(m) || m.LiveAllocs() != 0 {
		t.Fatal("allocation survived reset")
	}
	if after := m.Stats(); after != before {
		t.Fatalf("stats changed across reset: %+v != %+v", after, before)
	}
	if !m.prefixMode {
		t.Fatal("prefix mode lost on reset")
	}
	// The pool refills from post-reset traffic.
	if _, _, err := m.AllocatePrefixed(new(Holder), 3, 100, 7, 64); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AllocatePrefixed(new(Holder), 4, 100, 7, 64); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.PrefixHitTokens != before.PrefixHitTokens+64 {
		t.Fatalf("no hits after reset: %+v", st)
	}
}

// TestTieredDemoteRestore: under pressure idle blocks demote to the host
// tier instead of dropping, and a later hit promotes them back reporting
// the restored span for PCIe timing.
func TestTieredDemoteRestore(t *testing.T) {
	m := mustMgr(t, 128, 128) // 8 GPU + 8 host blocks
	m.EnablePrefixCache(true)
	a, _, err := m.AllocatePrefixed(new(Holder), 1, 65, 9, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	b := mustAlloc(t, m, 2, 128) // needs all 8 blocks
	st := m.Stats()
	if st.PrefixDemotions != 4 || st.PrefixEvictions != 0 {
		t.Fatalf("stats = %+v, want 4 demotions, 0 evictions", st)
	}
	if gpu, host := prefixBlocks(m); gpu != 0 || host != 4 {
		t.Fatalf("tiers = %d/%d, want 0/4", gpu, host)
	}
	if got := m.PeekPrefix(9, 64); got != 64 { // host-tier blocks still count
		t.Fatalf("peek = %d, want 64", got)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	_, acq, err := m.AllocatePrefixed(new(Holder), 3, 65, 9, 64)
	if err != nil {
		t.Fatal(err)
	}
	if acq.HitTokens != 64 || acq.RestoredTokens != 64 {
		t.Fatalf("acquire = %+v, want 64 hit / 64 restored", acq)
	}
	st = m.Stats()
	if st.PrefixRestores != 4 || st.PrefixRestoredTokens != 64 {
		t.Fatalf("stats = %+v, want 4 restores / 64 tokens", st)
	}
	if gpu, host := prefixBlocks(m); gpu != 4 || host != 0 {
		t.Fatalf("tiers after restore = %d/%d, want 4/0", gpu, host)
	}
	if free := m.cpuFree; free != m.cpuBlocks {
		t.Fatalf("host tier leaked: %d/%d free", free, m.cpuBlocks)
	}
}

// TestBackupsReclaimedFirst: GPU pressure drops backup copies before any
// cached prefix block is touched.
func TestBackupsReclaimedFirst(t *testing.T) {
	m := mustMgr(t, 128, 0) // 8 blocks
	m.EnablePrefixCache(false)
	b, err := m.AllocateBackup(new(Holder), 9, 32) // 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := m.AllocatePrefixed(new(Holder), 1, 33, 5, 32) // 2 shared + 1 private
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	mustAlloc(t, m, 2, 96) // need 6, free 4
	st := m.Stats()
	if st.BackupReclaims != 1 || st.PrefixEvictions != 0 {
		t.Fatalf("stats = %+v, want 1 backup reclaim, 0 prefix evictions", st)
	}
	if b.LiveOn(m) || b.IsBackup() {
		t.Fatal("backup survived reclaim")
	}
	if got := m.PeekPrefix(5, 32); got != 32 {
		t.Fatalf("prefix evicted before backups: peek = %d", got)
	}
	// A backup itself never reclaims cached state to fit.
	if _, err := m.AllocateBackup(new(Holder), 10, 96); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("backup alloc reclaimed cache: %v", err)
	}
	if got := m.PeekPrefix(5, 32); got != 32 {
		t.Fatalf("backup alloc damaged cache: peek = %d", got)
	}
}

// TestPrefixHitAndMissAllocatesNothing is the prefix pool's allocation
// budget. A tiered manager's host tier is full, and two conversations of
// 12 shared blocks take turns on 16 GPU blocks: each turn hits the 3
// blocks left of its chain, evicts 9 blocks of the other chain's tail to
// fit its own 9-block miss, and releases. Once warm, a turn reuses the
// evicted blocks, the chain's storage and the heaps, and allocates
// nothing; its handle comes from a 32-handle chunk, below AllocsPerRun's
// one-object resolution.
func TestPrefixHitAndMissAllocatesNothing(t *testing.T) {
	const bs = DefaultBlockSize
	m := mustMgr(t, 16*bs, 4*bs)
	m.EnablePrefixCache(true)
	a, _, err := m.AllocatePrefixed(new(Holder), 1, 4*bs+1, 3, 4*bs)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	if m.evictPrefixBlocks(4); m.cpuFree != 0 {
		t.Fatalf("host tier has %d free blocks after warm-up, want 0", m.cpuFree)
	}
	var holders [2]Holder
	turn := 0
	step := func() {
		g := turn % 2
		turn++
		a, acq, err := m.AllocatePrefixed(&holders[g], RequestID(turn), 12*bs+1, uint64(1+g), 12*bs)
		if err != nil {
			t.Fatal(err)
		}
		if turn > 2 && (acq.HitTokens != 3*bs || acq.MissTokens != 9*bs+1) {
			t.Fatalf("turn %d acquired %+v, want a 3-block hit and a 9-block miss", turn, acq)
		}
		if err := a.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs > 0 {
		t.Fatalf("a prefix hit with a tail miss, then release, allocates %.1f objects, want 0", allocs)
	}
}
