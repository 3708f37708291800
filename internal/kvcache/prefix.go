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
// middle.
//
// In tiered mode an evicted-but-warm block is demoted to host memory
// instead of dropped (an asynchronous write-back off the critical path,
// so demotion is untimed). A later hit on a demoted block promotes it
// back to GPU and reports the restored token span, which the engine
// charges as a PCIe transfer over its host xfer.Link — the restore, which
// IS on the critical path, is timed.
package kvcache

import "sort"

// pkey identifies one shared prefix block: the group stands in for the
// content-hash chain, idx for the block's position in it.
type pkey struct {
	group uint64
	idx   int
}

// pblock is one refcounted shared block.
type pblock struct {
	refs    int
	onGPU   bool   // false: demoted to the host tier
	lastUse uint64 // monotone recency stamp; unique per block
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

// PrefixEnabled reports whether EnablePrefixCache was called.
func (m *Manager) PrefixEnabled() bool { return m.prefixMode }

// PrefixBlocks returns the cached shared blocks on (GPU, host) tiers.
func (m *Manager) PrefixBlocks() (gpu, host int) {
	for _, b := range m.prefix {
		if b.onGPU {
			gpu++
		} else {
			host++
		}
	}
	return gpu, host
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
func (m *Manager) AllocatePrefixed(id RequestID, tokens int, group uint64, prefixTokens int) (PrefixAcquire, error) {
	if !m.prefixMode || group == 0 || prefixTokens < m.blockSize {
		return PrefixAcquire{}, m.Allocate(id, tokens)
	}
	if _, ok := m.tables[id]; ok {
		return PrefixAcquire{}, errAlreadyAllocated(id)
	}
	// Only whole blocks strictly inside the prompt are sharable: the
	// request always computes at least its last token itself.
	share := prefixTokens
	if share > tokens-1 {
		share = tokens - 1
	}
	nShare := share / m.blockSize
	if nShare <= 0 {
		return PrefixAcquire{}, m.Allocate(id, tokens)
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
		b.refs++
	}
	if gpuNeed > m.gpuFree && !m.ensureFree(gpuNeed) {
		for _, b := range chain {
			b.refs--
		}
		m.stats.FailedAllocs++
		return PrefixAcquire{}, ErrNoSpace
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
		m.prefix[pkey{group, i}] = &pblock{refs: 1, onGPU: true}
	}
	// Stamp recency tail-first so LRU eviction trims chains from the
	// tail: within a group, lastUse stays strictly decreasing in idx.
	for i := nShare - 1; i >= 0; i-- {
		m.useSeq++
		m.prefix[pkey{group, i}].lastUse = m.useSeq
	}

	m.tables[id] = &Alloc{
		m: m, id: id, tokens: tokens, blocks: privateBlocks, loc: OnGPU,
		group: group, shared: nShare,
	}
	m.touchPeak()

	hitTokens := hitBlocks * m.blockSize
	m.stats.PrefixHitTokens += uint64(hitTokens)
	m.stats.PrefixMissTokens += uint64(tokens - hitTokens)
	return PrefixAcquire{
		HitTokens:      hitTokens,
		MissTokens:     tokens - hitTokens,
		RestoredTokens: restoreBlocks * m.blockSize,
	}, nil
}

// derefShared drops a releasing request's references on its shared
// chain. Blocks stay cached at refs==0 until pressure evicts them.
func (m *Manager) derefShared(t *Alloc) {
	for i := 0; i < t.shared; i++ {
		if b, ok := m.prefix[pkey{t.group, i}]; ok && b.refs > 0 {
			b.refs--
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

// dropBackups releases backup allocations (ascending request id, for
// determinism) until need GPU blocks are free or none remain. Dropping a
// backup is always safe: every consumer checks Has/IsBackup before use.
func (m *Manager) dropBackups(need int) {
	var ids []RequestID
	for id, t := range m.tables {
		if t.isBackup && t.loc == OnGPU {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if m.gpuFree >= need {
			return
		}
		t := m.tables[id]
		m.gpuFree += t.blocks
		m.drop(t)
		m.stats.BackupReclaims++
	}
}

// evictPrefixBlocks removes up to n unreferenced prefix blocks from the
// GPU, least recently used first. In tiered mode a victim is demoted to
// host memory while space remains there (write-back is asynchronous and
// untimed); otherwise it is dropped. Victim choice is deterministic:
// lastUse stamps are unique.
func (m *Manager) evictPrefixBlocks(n int) {
	for n > 0 {
		var vk pkey
		var victim *pblock
		for k, b := range m.prefix {
			if b.refs > 0 || !b.onGPU {
				continue
			}
			if victim == nil || b.lastUse < victim.lastUse {
				victim, vk = b, k
			}
		}
		if victim == nil {
			return
		}
		m.gpuFree++
		n--
		if m.tiered && m.cpuFree > 0 {
			m.cpuFree--
			victim.onGPU = false
			m.stats.PrefixDemotions++
		} else {
			delete(m.prefix, vk)
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
		var vk pkey
		var victim *pblock
		for k, b := range m.prefix {
			if b.refs > 0 || b.onGPU {
				continue
			}
			if victim == nil || b.lastUse < victim.lastUse {
				victim, vk = b, k
			}
		}
		if victim == nil {
			return false
		}
		m.cpuFree++
		delete(m.prefix, vk)
		m.stats.PrefixEvictions++
	}
	return true
}
