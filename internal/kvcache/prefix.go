// Cross-request prefix caching with a tiered GPU→host backing store.
//
// Real systems (vLLM, SGLang, BLIS) key KV blocks by a rolling content
// hash of the tokens they hold, so any two requests whose prompts share a
// token-for-token prefix share the underlying blocks. The simulator does
// not materialize token values — requests carry lengths — so the hash
// chain is modeled directly by its structure: a block's identity is
// (PrefixGroup, block index). Two requests in the same group with
// PrefixTokens ≥ k·blockSize share their first k blocks, exactly the
// sharing pattern a content hash would discover, and the chain property
// (block i's hash covers all earlier tokens) maps to the rule that a hit
// is the longest fully-cached *run* of blocks starting at index 0.
//
// Shared blocks are refcounted: every resident request that acquired a
// block holds a reference, and only refs==0 blocks are eviction
// candidates. Eviction order under GPU pressure is
//
//	backup copies → idle prefix blocks (LRU) → the engine's own
//	preemption machinery (swap-out / recompute)
//
// so redundant state always yields before useful state, and cached
// prefixes yield before any running request is disturbed. Recency stamps
// are issued tail-first within a chain, which makes LRU eviction trim
// chains strictly from the tail — a cached chain is never holed in the
// middle. Each tier keeps its idle (refs==0) blocks in a min-heap on the
// stamp, so a victim costs O(log n), not a scan of the pool.
//
// The pool is one chain per group: a slice indexed by block index, nil
// where a block is absent. A lookup, an acquire and a release each cost
// one map access per request, not one per block. A block leaving the pool
// nils its slot; the chain's trailing nils are trimmed and an emptied
// group is deleted, so the pool holds no more than its live blocks' chains.
// Blocks are carved from slabs, and a block that leaves is zeroed and
// reused, so a cached block costs no heap object of its own.
//
// In tiered mode an evicted-but-warm block is demoted to host memory
// instead of dropped (an asynchronous write-back off the critical path,
// so demotion is untimed). A later hit on a demoted block promotes it
// back to GPU and reports the restored token span, which the engine
// charges as a PCIe transfer over its host xfer.Link — the restore, which
// IS on the critical path, is timed.
package kvcache

import (
	"cmp"
	"container/heap"
	"slices"
)

// pblock is one refcounted shared block: block idx of its group's chain.
// It carries its own place, so a victim popped off an idle heap can leave
// the pool; the narrow fields keep it at 32 bytes.
type pblock struct {
	group   uint64
	lastUse uint64 // monotone recency stamp; unique per block
	idx     int32
	refs    int32
	heapIdx int32 // position in its tier's idle heap; -1 while referenced
	onGPU   bool  // false: demoted to the host tier
}

// slabBlocks is how many blocks one heap allocation holds (8 KiB).
const slabBlocks = 256

// newBlock returns a zeroed block, a freed one first.
func (m *Manager) newBlock() *pblock {
	if n := len(m.freeBlocks); n > 0 {
		b := m.freeBlocks[n-1]
		m.freeBlocks = m.freeBlocks[:n-1]
		return b
	}
	if len(m.slab) == 0 {
		m.slab = make([]pblock, slabBlocks)
	}
	b := &m.slab[0]
	m.slab = m.slab[1:]
	m.carved++
	return b
}

// freeBlock returns a block that has left the pool and both heaps.
func (m *Manager) freeBlock(b *pblock) {
	*b = pblock{}
	m.freeBlocks = append(m.freeBlocks, b)
}

// unlink takes a block out of its group's chain and frees it. The chain
// loses its trailing nils, and an emptied group leaves the pool.
func (m *Manager) unlink(b *pblock) {
	chain := m.prefix[b.group]
	chain[b.idx] = nil
	n := len(chain)
	for n > 0 && chain[n-1] == nil {
		n--
	}
	switch {
	case n == 0:
		delete(m.prefix, b.group)
	case n < len(chain):
		m.prefix[b.group] = chain[:n]
	}
	m.freeBlock(b)
}

// idleHeap holds one tier's unreferenced blocks, least recently used on
// top: the tier's next reclaim victim.
type idleHeap []*pblock

func (h idleHeap) Len() int           { return len(h) }
func (h idleHeap) Less(i, j int) bool { return h[i].lastUse < h[j].lastUse }
func (h idleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = int32(i)
	h[j].heapIdx = int32(j)
}

func (h *idleHeap) Push(x any) {
	b := x.(*pblock)
	b.heapIdx = int32(len(*h))
	*h = append(*h, b)
}

func (h *idleHeap) Pop() any {
	old := *h
	n := len(old) - 1
	b := old[n]
	old[n] = nil
	b.heapIdx = -1
	*h = old[:n]
	return b
}

// idleOf returns the idle heap of the tier b sits on.
func (m *Manager) idleOf(b *pblock) *idleHeap {
	if b.onGPU {
		return &m.gpuIdle
	}
	return &m.hostIdle
}

// ref takes a reference on b; an idle block leaves its tier's heap.
func (m *Manager) ref(b *pblock) {
	if b.refs == 0 {
		heap.Remove(m.idleOf(b), int(b.heapIdx))
	}
	b.refs++
}

// unref drops a reference on b; a block left idle joins its tier's heap.
func (m *Manager) unref(b *pblock) {
	b.refs--
	if b.refs == 0 {
		heap.Push(m.idleOf(b), b)
	}
}

// PrefixAcquire reports what AllocatePrefixed found in the cache.
type PrefixAcquire struct {
	// HitTokens of the prompt were already cached (GPU or host tier)
	// and need no prefill compute.
	HitTokens int
	// MissTokens is the remainder of the prompt that must be computed.
	MissTokens int
	// RestoredTokens of the hit were on the host tier and were promoted
	// back to GPU; the caller charges their PCIe transfer time.
	RestoredTokens int
}

// EnablePrefixCache turns on cross-request prefix sharing, optionally
// with the tiered host backing store. Must be called before traffic;
// managers without it behave exactly as before (no reclaim, no sharing).
func (m *Manager) EnablePrefixCache(tiered bool) {
	m.prefixMode = true
	m.tiered = tiered
	m.prefix = make(map[uint64][]*pblock)
}

// PeekPrefix returns how many tokens of a prompt's shared prefix are
// currently cached (either tier), without acquiring anything — the
// scheduler's view of the cache before it commits a dispatch.
func (m *Manager) PeekPrefix(group uint64, prefixTokens int) int {
	if !m.prefixMode || group == 0 {
		return 0
	}
	return hitRun(m.prefix[group], prefixTokens/m.blockSize) * m.blockSize
}

// hitRun is the length of the unbroken run of cached blocks at the head of
// chain, at most n.
func hitRun(chain []*pblock, n int) int {
	n = min(n, len(chain))
	for i := 0; i < n; i++ {
		if chain[i] == nil {
			return i
		}
	}
	return n
}

// AllocatePrefixed is Allocate for a request whose first prefixTokens
// prompt tokens belong to shared prefix group. Whole blocks of that span
// are looked up in the pool: hits are acquired (refcounted, promoted from
// the host tier if demoted), misses are computed by this request and
// published for later arrivals. The remainder of the context gets
// private blocks as usual. With the cache disabled or group 0 it
// degenerates to plain Allocate.
func (m *Manager) AllocatePrefixed(h *Holder, id RequestID, tokens int,
	group uint64, prefixTokens int) (*Alloc, PrefixAcquire, error) {
	if !m.prefixMode || group == 0 || prefixTokens < m.blockSize {
		t, err := m.Allocate(h, id, tokens)
		return t, PrefixAcquire{}, err
	}
	// Only whole blocks strictly inside the prompt are sharable: the
	// request always computes at least its last token itself.
	share := prefixTokens
	if share > tokens-1 {
		share = tokens - 1
	}
	nShare := share / m.blockSize
	if nShare <= 0 {
		t, err := m.Allocate(h, id, tokens)
		return t, PrefixAcquire{}, err
	}
	s, err := h.slot(m, id)
	if err != nil {
		return nil, PrefixAcquire{}, err
	}
	m.stats.PrefixLookups++

	// The hit is the unbroken run of cached blocks from the chain head.
	chain := m.prefix[group]
	hitBlocks := hitRun(chain, nShare)
	restoreBlocks := 0
	for _, b := range chain[:hitBlocks] {
		if !b.onGPU {
			restoreBlocks++
		}
	}
	missBlocks := nShare - hitBlocks
	privateBlocks := m.BlocksFor(tokens) - nShare
	gpuNeed := privateBlocks + missBlocks + restoreBlocks

	// Acquire references before reclaiming so eviction cannot take the
	// very blocks this request is hitting; roll back on failure.
	for _, b := range chain[:hitBlocks] {
		m.ref(b)
	}
	if gpuNeed > m.gpuFree {
		if !m.ensureFree(gpuNeed) {
			for _, b := range chain[:hitBlocks] {
				m.unref(b)
			}
			m.stats.FailedAllocs++
			return nil, PrefixAcquire{}, ErrNoSpace
		}
		// Reclaim may have trimmed the chain past the hit, or deleted
		// the group when nothing of it was hit.
		chain = m.prefix[group]
	}
	m.gpuFree -= gpuNeed
	for _, b := range chain[:hitBlocks] {
		if !b.onGPU {
			b.onGPU = true
			m.cpuFree++
			m.stats.PrefixRestores++
			m.stats.PrefixRestoredTokens += uint64(m.blockSize)
		}
	}
	// Publish missed blocks immediately: followers share them while this
	// request is still prefilling, holding a reference the whole time.
	// Slots past a chain's end are nil, as only nil slots are trimmed.
	if len(chain) < nShare {
		chain = slices.Grow(chain, nShare-len(chain))[:nShare]
		m.prefix[group] = chain
	}
	for i := hitBlocks; i < nShare; i++ {
		if stale := chain[i]; stale != nil {
			m.dropStale(stale)
		}
		b := m.newBlock()
		*b = pblock{group: group, idx: int32(i), refs: 1, heapIdx: -1, onGPU: true}
		chain[i] = b
	}
	// Stamp recency tail-first so LRU eviction trims chains from the
	// tail: within a group, lastUse stays strictly decreasing in idx.
	// Every block of the chain is referenced, so no heap holds one.
	for i := nShare - 1; i >= 0; i-- {
		m.useSeq++
		chain[i].lastUse = m.useSeq
	}

	*s = m.newAlloc(Alloc{
		id: id, tokens: tokens, blocks: privateBlocks, loc: OnGPU,
		group: group, shared: nShare,
	})
	m.touchPeak()

	hitTokens := hitBlocks * m.blockSize
	m.stats.PrefixHitTokens += uint64(hitTokens)
	m.stats.PrefixMissTokens += uint64(tokens - hitTokens)
	return *s, PrefixAcquire{
		HitTokens:      hitTokens,
		MissTokens:     tokens - hitTokens,
		RestoredTokens: restoreBlocks * m.blockSize,
	}, nil
}

// dropStale frees a block cached past a hole in its chain, which a fresh
// block is about to replace. Holes open when a demotion finds the host
// tier full and drops the victim, while an older block of its chain sits
// on the host. The stale block is idle: a request holds its whole chain
// from the head, so no request can reference a block past a hole. The
// caller puts the fresh block in its chain slot.
func (m *Manager) dropStale(b *pblock) {
	heap.Remove(m.idleOf(b), int(b.heapIdx))
	if b.onGPU {
		m.gpuFree++
	} else {
		m.cpuFree++
	}
	m.stats.PrefixEvictions++
	m.freeBlock(b)
}

// derefShared drops a releasing request's references on its shared
// chain. Blocks stay cached at refs==0 until pressure evicts them.
func (m *Manager) derefShared(t *Alloc) {
	if t.shared == 0 {
		return
	}
	chain := m.prefix[t.group]
	for _, b := range chain[:min(t.shared, len(chain))] {
		if b != nil && b.refs > 0 {
			m.unref(b)
		}
	}
}

// ensureFree tries to raise gpuFree to need by reclaiming redundant and
// idle state, in order: backup copies first (as the engine always
// reclaimed them first conceptually — they are copies by construction),
// then unreferenced prefix blocks, least recently used first. It is a
// no-op outside prefix mode, preserving the historical never-reclaim
// behavior exactly.
func (m *Manager) ensureFree(need int) bool {
	if need <= m.gpuFree {
		return true
	}
	if !m.prefixMode {
		return false
	}
	m.dropBackups(need)
	if need <= m.gpuFree {
		return true
	}
	m.evictPrefixBlocks(need - m.gpuFree)
	return need <= m.gpuFree
}

// dropBackups releases GPU-resident backup allocations, in ascending
// request ID for determinism, until need GPU blocks are free or none
// remain. Dropping a backup is always safe: every consumer checks that its
// handle is a live backup before use.
func (m *Manager) dropBackups(need int) {
	slices.SortStableFunc(m.backups, func(a, b *Alloc) int { return cmp.Compare(a.id, b.id) })
	for i := 0; i < len(m.backups) && m.gpuFree < need; {
		if t := m.backups[i]; t.loc == OnGPU {
			m.gpuFree += t.blocks
			m.drop(t)
			m.stats.BackupReclaims++
		} else {
			i++
		}
	}
}

// evictPrefixBlocks removes up to n unreferenced prefix blocks from the
// GPU, least recently used first. In tiered mode a victim is demoted to
// host memory while space remains there (write-back is asynchronous and
// untimed); otherwise it is dropped. Victim choice is deterministic:
// lastUse stamps are unique.
func (m *Manager) evictPrefixBlocks(n int) {
	for ; n > 0 && len(m.gpuIdle) > 0; n-- {
		victim := heap.Pop(&m.gpuIdle).(*pblock)
		m.gpuFree++
		if m.tiered && m.cpuFree > 0 {
			m.cpuFree--
			victim.onGPU = false
			heap.Push(&m.hostIdle, victim)
			m.stats.PrefixDemotions++
		} else {
			m.unlink(victim)
			m.stats.PrefixEvictions++
		}
	}
}

// ensureHostFree makes room in the host tier for a swap-out by dropping
// idle demoted prefix blocks (LRU): a preempted request's KV always
// outranks a cold cached prefix.
func (m *Manager) ensureHostFree(need int) bool {
	if need <= m.cpuFree {
		return true
	}
	if !m.prefixMode {
		return false
	}
	for need > m.cpuFree {
		if len(m.hostIdle) == 0 {
			return false
		}
		victim := heap.Pop(&m.hostIdle).(*pblock)
		m.cpuFree++
		m.unlink(victim)
		m.stats.PrefixEvictions++
	}
	return true
}
