package kvcache

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// pkey names one shared prefix block: its group and its place in the
// group's chain.
type pkey struct {
	group uint64
	idx   int
}

func (b *pblock) key() pkey { return pkey{b.group, int(b.idx)} }

// prefixMap flattens the pool's chains into one map by block key.
func prefixMap(m *Manager) map[pkey]*pblock {
	pool := map[pkey]*pblock{}
	for g, chain := range m.prefix {
		for i, b := range chain {
			if b != nil {
				pool[pkey{g, i}] = b
			}
		}
	}
	return pool
}

// refVictim is the full-map scan reclaim used before the idle heaps, kept
// as the executable specification of victim choice: the unreferenced
// block on the given tier with the smallest recency stamp, or nil.
func refVictim(m *Manager, onGPU bool) *pblock {
	var victim *pblock
	for _, b := range prefixMap(m) {
		if b.refs > 0 || b.onGPU != onGPU {
			continue
		}
		if victim == nil || b.lastUse < victim.lastUse {
			victim = b
		}
	}
	return victim
}

// refOrder is the order repeated refVictim calls would reclaim a tier's
// idle blocks in, skipping the blocks in held (taken by the operation
// about to run, so not idle while it reclaims).
func refOrder(m *Manager, onGPU bool, held map[pkey]bool) []pkey {
	var idle []*pblock
	for k, b := range prefixMap(m) {
		if b.refs == 0 && b.onGPU == onGPU && !held[k] {
			idle = append(idle, b)
		}
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].lastUse < idle[j].lastUse })
	keys := make([]pkey, len(idle))
	for i, b := range idle {
		keys[i] = b.key()
	}
	return keys
}

// checkIdleHeaps asserts that every idle block sits in exactly its tier's
// heap at its stored index, every referenced block in none, that both
// heaps are heap-ordered, and that each heap's top is refVictim's pick.
// It also checks the backup list and that each tier's used blocks are
// exactly the pool's and the live allocations' blocks on it; live holds
// every live handle on m. Last it checks the pool's storage (see
// checkChains).
func checkIdleHeaps(t *testing.T, m *Manager, live []*Alloc, where string) {
	t.Helper()
	checkChains(t, m, where)
	pool := prefixMap(m)
	idle := map[bool]int{}
	for k, b := range pool {
		if b.key() != k {
			t.Fatalf("%s: block under key %v carries key %v", where, k, b.key())
		}
		if b.refs < 0 {
			t.Fatalf("%s: block %v has %d refs", where, k, b.refs)
		}
		if b.refs > 0 {
			if b.heapIdx != -1 {
				t.Fatalf("%s: referenced block %v has heap index %d", where, k, b.heapIdx)
			}
			continue
		}
		idle[b.onGPU]++
		h := *m.idleOf(b)
		if int(b.heapIdx) >= len(h) || b.heapIdx < 0 || h[b.heapIdx] != b {
			t.Fatalf("%s: idle block %v (onGPU %v) is not at its stored index %d", where, k, b.onGPU, b.heapIdx)
		}
	}
	for _, tier := range []struct {
		onGPU bool
		h     idleHeap
	}{{true, m.gpuIdle}, {false, m.hostIdle}} {
		if len(tier.h) != idle[tier.onGPU] {
			t.Fatalf("%s: onGPU=%v heap holds %d blocks, pool has %d idle", where, tier.onGPU, len(tier.h), idle[tier.onGPU])
		}
		for i := 1; i < len(tier.h); i++ {
			if tier.h.Less(i, (i-1)/2) {
				t.Fatalf("%s: onGPU=%v heap out of order at %d", where, tier.onGPU, i)
			}
		}
		want := refVictim(m, tier.onGPU)
		var got *pblock
		if len(tier.h) > 0 {
			got = tier.h[0]
		}
		if got != want {
			t.Fatalf("%s: onGPU=%v heap's next victim %+v, reference scan picks %+v", where, tier.onGPU, got, want)
		}
	}
	backups := 0
	used := map[bool]int{true: idle[true], false: idle[false]}
	for _, b := range pool {
		if b.refs > 0 {
			used[b.onGPU]++
		}
	}
	for _, a := range live {
		if a.isBackup {
			backups++
		}
		used[a.loc == OnGPU] += a.blocks
	}
	if backups != len(m.backups) || m.LiveAllocs() != len(live) {
		t.Fatalf("%s: %d listed backups, %d live allocations; handles hold %d and %d",
			where, len(m.backups), m.LiveAllocs(), backups, len(live))
	}
	for _, b := range m.backups {
		if !b.IsBackup() {
			t.Fatalf("%s: backup list holds dead or promoted request %d", where, b.id)
		}
	}
	if used[true] != m.gpuBlocks-m.gpuFree || used[false] != m.cpuBlocks-m.cpuFree {
		t.Fatalf("%s: blocks held GPU %d host %d, accounted GPU %d host %d",
			where, used[true], used[false], m.gpuBlocks-m.gpuFree, m.cpuBlocks-m.cpuFree)
	}
}

// checkChains asserts that each chain slot i holds a block of its group
// with idx i or nil, that no chain ends in nil and no group maps to an
// empty chain, that every free block is zeroed and sits in no chain, no
// heap and once on the free list, and that the blocks carved from slabs
// are exactly the pool's plus the free ones.
func checkChains(t *testing.T, m *Manager, where string) {
	t.Helper()
	inPool := map[*pblock]bool{}
	for g, chain := range m.prefix {
		if len(chain) == 0 || chain[len(chain)-1] == nil {
			t.Fatalf("%s: group %d maps to chain of %d ending in nil or empty", where, g, len(chain))
		}
		for i, b := range chain {
			if b == nil {
				continue
			}
			if b.group != g || int(b.idx) != i {
				t.Fatalf("%s: slot %d of group %d holds block %v", where, i, g, b.key())
			}
			if inPool[b] {
				t.Fatalf("%s: block %v sits in two chain slots", where, b.key())
			}
			inPool[b] = true
		}
	}
	inHeap := map[*pblock]bool{}
	for _, b := range m.gpuIdle {
		inHeap[b] = true
	}
	for _, b := range m.hostIdle {
		inHeap[b] = true
	}
	free := map[*pblock]bool{}
	for _, b := range m.freeBlocks {
		if *b != (pblock{}) || inPool[b] || inHeap[b] || free[b] {
			t.Fatalf("%s: free block %+v is not zeroed, or sits in the pool, a heap or twice on the free list", where, *b)
		}
		free[b] = true
	}
	if m.carved != len(inPool)+len(free) {
		t.Fatalf("%s: %d blocks carved from slabs, pool holds %d and free list %d", where, m.carved, len(inPool), len(free))
	}
}

// checkVictims asserts that the blocks an operation reclaimed from a tier
// are exactly the first ones of the tier's reference order taken before
// it: a GPU victim was demoted or dropped, a host victim dropped.
func checkVictims(t *testing.T, m *Manager, where string, onGPU bool, order []pkey) {
	t.Helper()
	pool := prefixMap(m)
	n := 0
	for n < len(order) {
		b, ok := pool[order[n]]
		if ok && b.onGPU == onGPU {
			break
		}
		n++
	}
	for _, k := range order[n:] {
		if b, ok := pool[k]; !ok || b.onGPU != onGPU {
			t.Fatalf("%s: onGPU=%v reclaimed %v out of LRU order (first %d of %d reclaimed before it)", where, onGPU, k, n, len(order))
		}
	}
}

// TestPropertyPrefixReclaimMatchesScan drives prefix-mode managers, tiered
// and not, through seeded random traffic — prefixed hits, misses and
// rolled-back failures, plain allocations and growth, releases, swaps
// that force host-tier eviction, backups and their reclaim, single-victim
// reclaims and resets — and checks the idle heaps against the reference
// scan around every operation.
func TestPropertyPrefixReclaimMatchesScan(t *testing.T) {
	if got := unsafe.Sizeof(pblock{}); got != 32 {
		t.Fatalf("pblock is %d bytes, want 32", got)
	}
	for _, tiered := range []bool{false, true} {
		for seed := int64(0); seed < 20; seed++ {
			runReclaimScript(t, tiered, seed)
		}
	}
}

func runReclaimScript(t *testing.T, tiered bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := mustMgr(t, 48*DefaultBlockSize, 16*DefaultBlockSize)
	m.EnablePrefixCache(tiered)
	var live []*Alloc
	next := RequestID(1)
	forget := func(i int) {
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	for op := 0; op < 1500; op++ {
		var held map[pkey]bool
		group := uint64(1 + rng.Intn(4))
		prefixTokens := rng.Intn(12) * DefaultBlockSize
		tokens := 1 + rng.Intn(320)
		x := rng.Intn(100)
		if x < 40 {
			held = map[pkey]bool{}
			for i := 0; i*DefaultBlockSize < prefixTokens; i++ {
				held[pkey{group, i}] = true
			}
		}
		gpuOrder := refOrder(m, true, held)
		hostOrder := refOrder(m, false, held)
		what := ""
		switch {
		case x < 40:
			what = "AllocatePrefixed"
			if a, _, err := m.AllocatePrefixed(new(Holder), next, tokens, group, prefixTokens); err == nil {
				live = append(live, a)
			}
			next++
		case x < 48:
			what = "Allocate"
			if a, err := m.Allocate(new(Holder), next, tokens); err == nil {
				live = append(live, a)
			}
			next++
		case x < 55 && len(live) > 0:
			what = "Grow"
			if a := live[rng.Intn(len(live))]; a.Location() == OnGPU {
				_ = a.Grow(a.Tokens() + rng.Intn(64))
			}
		case x < 75 && len(live) > 0:
			what = "Release"
			i := rng.Intn(len(live))
			if err := live[i].Release(); err != nil {
				t.Fatal(err)
			}
			forget(i)
		case x < 83 && len(live) > 0:
			what = "SwapOut/SwapIn"
			if a := live[rng.Intn(len(live))]; a.Location() == OnGPU {
				_, _ = a.SwapOut()
			} else {
				_, _ = a.SwapIn()
			}
		case x < 91:
			what = "AllocateBackup"
			if a, err := m.AllocateBackup(new(Holder), next, tokens/2+1); err == nil {
				live = append(live, a)
				if rng.Intn(4) == 0 {
					_ = a.Promote()
				}
			}
			next++
		case x < 95:
			what = "evict one"
			if m.evictPrefixBlocks(1); len(gpuOrder) > 0 {
				if b, ok := prefixMap(m)[gpuOrder[0]]; ok && b.onGPU {
					t.Fatalf("tiered=%v seed %d op %d: single GPU reclaim left the reference victim %v", tiered, seed, op, gpuOrder[0])
				}
			}
		case x < 98:
			what = "drop one host block"
			if m.ensureHostFree(m.cpuFree + 1); len(hostOrder) > 0 {
				if _, ok := prefixMap(m)[hostOrder[0]]; ok {
					t.Fatalf("tiered=%v seed %d op %d: single host reclaim left the reference victim %v", tiered, seed, op, hostOrder[0])
				}
			}
		default:
			what = "Reset"
			m.Reset()
			live = live[:0]
		}
		// Backups dropped by a reclaim are dead.
		for i := 0; i < len(live); {
			if live[i].LiveOn(m) {
				i++
			} else {
				forget(i)
			}
		}
		where := fmt.Sprintf("tiered=%v seed %d op %d (%s)", tiered, seed, op, what)
		if what != "Reset" {
			checkVictims(t, m, where, true, gpuOrder)
			checkVictims(t, m, where, false, hostOrder)
		}
		checkIdleHeaps(t, m, live, where)
	}
	st := m.Stats()
	if st.PrefixEvictions == 0 || st.PrefixHitTokens == 0 || st.BackupReclaims == 0 || (tiered && (st.PrefixDemotions == 0 || st.PrefixRestores == 0)) {
		t.Fatalf("tiered=%v seed %d: script missed a reclaim path: %+v", tiered, seed, st)
	}
}
