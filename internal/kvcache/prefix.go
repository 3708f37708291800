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

// pkey identifies one shared prefix block: the group stands in for the
// content-hash chain, idx for the block's position in it.
type pkey struct {
	group uint64
	idx   int
}

// pblock is one refcounted shared block. It carries its own key, so a
// victim popped off an idle heap can leave the pool; the narrow fields
// keep it at 32 bytes.
type pblock struct {
	group   uint64
	lastUse uint64 // monotone recency stamp; unique per block
	idx     int32
	refs    int32
	heapIdx int32 // position in its tier's idle heap; -1 while referenced
	onGPU   bool  // false: demoted to the host tier
}

func (b *pblock) key() pkey { return pkey{b.group, int(b.idx)} }

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
	m.prefix = make(map[pkey]*pblock)
}

// PeekPrefix returns how many tokens of a prompt's shared prefix are
// currently cached (either tier), without acquiring anything — the
// scheduler's view of the cache before it commits a dispatch.
func (m *Manager) PeekPrefix(group uint64, prefixTokens int) int {
	if !m.prefixMode || group == 0 {
		return 0
	}
	hit := 0
	for i := 0; i < prefixTokens/m.blockSize; i++ {
		if _, ok := m.prefix[pkey{group, i}]; !ok {
			break
		}
		hit++
	}
	return hit * m.blockSize
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
	chain := make([]*pblock, 0, nShare)
	restoreBlocks := 0
	for i := 0; i < nShare; i++ {
		b, ok := m.prefix[pkey{group, i}]
		if !ok {
			break
		}
		chain = append(chain, b)
		if !b.onGPU {
			restoreBlocks++
		}
	}
	hitBlocks := len(chain)
	missBlocks := nShare - hitBlocks
	privateBlocks := m.BlocksFor(tokens) - nShare
	gpuNeed := privateBlocks + missBlocks + restoreBlocks

	// Acquire references before reclaiming so eviction cannot take the
	// very blocks this request is hitting; roll back on failure.
	for _, b := range chain {
		m.ref(b)
	}
	if gpuNeed > m.gpuFree && !m.ensureFree(gpuNeed) {
		for _, b := range chain {
			m.unref(b)
		}
		m.stats.FailedAllocs++
		return nil, PrefixAcquire{}, ErrNoSpace
	}
	m.gpuFree -= gpuNeed
	for _, b := range chain {
		if !b.onGPU {
			b.onGPU = true
			m.cpuFree++
			m.stats.PrefixRestores++
			m.stats.PrefixRestoredTokens += uint64(m.blockSize)
		}
	}
	// Publish missed blocks immediately: followers share them while this
	// request is still prefilling, holding a reference the whole time.
	for i := hitBlocks; i < nShare; i++ {
		b := &pblock{group: group, idx: int32(i), refs: 1, heapIdx: -1, onGPU: true}
		if stale, ok := m.prefix[b.key()]; ok {
			m.dropStale(stale)
		}
		m.prefix[b.key()] = b
		chain = append(chain, b)
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
// from the head, so no request can reference a block past a hole.
func (m *Manager) dropStale(b *pblock) {
	heap.Remove(m.idleOf(b), int(b.heapIdx))
	if b.onGPU {
		m.gpuFree++
	} else {
		m.cpuFree++
	}
	m.stats.PrefixEvictions++
}

// derefShared drops a releasing request's references on its shared
// chain. Blocks stay cached at refs==0 until pressure evicts them.
func (m *Manager) derefShared(t *Alloc) {
	for i := 0; i < t.shared; i++ {
		if b, ok := m.prefix[pkey{t.group, i}]; ok && b.refs > 0 {
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
			delete(m.prefix, victim.key())
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
		delete(m.prefix, victim.key())
		m.stats.PrefixEvictions++
	}
	return true
}
