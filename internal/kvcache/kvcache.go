// Package kvcache implements a PagedAttention-style KV-cache block manager
// (paper §2.1): the KV space of a serving instance is divided into
// fixed-size blocks of tokens, allocated on demand per request as contexts
// grow, with optional swap space in host memory for preempted requests and
// backup copies used by WindServe's rescheduling (paper §3.3).
//
// Because allocation is paged there is no fragmentation to model; the
// manager tracks block counts, and each allocation is a handle its request
// holds (see Holder), which is all the schedulers observe.
package kvcache

import (
	"errors"
	"fmt"
	"slices"
)

// DefaultBlockSize is the tokens-per-block used by vLLM and DistServe.
const DefaultBlockSize = 16

// ErrNoSpace is returned when a GPU allocation cannot be satisfied.
var ErrNoSpace = errors.New("kvcache: insufficient free GPU blocks")

// ErrNoCPUSpace is returned when swap space is exhausted.
var ErrNoCPUSpace = errors.New("kvcache: insufficient free CPU swap blocks")

// ErrUnknownRequest is returned for operations through a nil or dead
// handle.
var ErrUnknownRequest = errors.New("kvcache: unknown request")

// RequestID identifies a request's allocation.
type RequestID uint64

// Location says where a request's KV blocks currently live. It is one
// byte, which keeps an Alloc at 64 bytes and a chunk of them at 2 KiB.
type Location int8

const (
	// OnGPU means all the request's blocks are in device memory.
	OnGPU Location = iota
	// Swapped means the blocks were swapped out to host memory.
	Swapped
)

// Alloc is one request's allocation on one manager, and its one name: the
// allocating call returns it and every later operation is a method on it.
// Release, backup reclaim and the manager's Reset kill it, so a handle
// taken before them never resolves again, even once the same request is
// allocated anew. The request ID is a label only: error text and the
// order backups are reclaimed in.
type Alloc struct {
	m        *Manager
	id       RequestID
	epoch    uint64 // m's epoch while live; 0 once released or reclaimed
	tokens   int
	blocks   int // private blocks only; shared prefix blocks are counted in shared
	loc      Location
	isBackup bool
	// group/shared link the request to the prefix pool: the first
	// shared*blockSize tokens live in refcounted blocks of the given
	// prefix group (see prefix.go). Zero for plain allocations.
	group  uint64
	shared int
}

// privateTokens is the token span held in the request's own blocks, i.e.
// what actually moves on a swap. The shared prefix stays resident.
func (t *Alloc) privateTokens(blockSize int) int {
	return t.tokens - t.shared*blockSize
}

// Stats aggregates allocator activity for the experiment harness
// (Fig. 1a's swap counts come from here).
type Stats struct {
	// PeakBlocks is the maximum concurrently-used GPU block count.
	PeakBlocks int
	// SwapOutEvents / SwapInEvents count whole-request swaps.
	SwapOutEvents, SwapInEvents uint64
	// SwapOutTokens / SwapInTokens count tokens moved across the host link.
	SwapOutTokens, SwapInTokens uint64
	// FailedAllocs counts admission-path allocation attempts (Allocate,
	// Grow, AllocatePrefixed) rejected with ErrNoSpace. Swap-in retries
	// are deliberately excluded: they are transient back-pressure, not
	// admission failures, and are counted in SwapInFailures instead.
	FailedAllocs uint64
	// SwapInFailures counts SwapIn attempts deferred by transient GPU
	// pressure. The engine retries these every kick, so one stuck
	// request can contribute many; shedding heuristics must not read
	// them as admission failures.
	SwapInFailures uint64

	// Prefix-cache counters; all zero unless EnablePrefixCache was
	// called (see prefix.go).

	// PrefixLookups counts AllocatePrefixed calls that consulted the pool.
	PrefixLookups uint64
	// PrefixHitTokens / PrefixMissTokens partition every looked-up
	// prompt's tokens into prefix-cache hits and misses.
	PrefixHitTokens, PrefixMissTokens uint64
	// PrefixEvictions counts unreferenced prefix blocks dropped outright;
	// PrefixDemotions counts those demoted to the host tier instead.
	PrefixEvictions, PrefixDemotions uint64
	// PrefixRestores / PrefixRestoredTokens count host-tier prefix blocks
	// promoted back to GPU on a hit (the timed PCIe restore path).
	PrefixRestores, PrefixRestoredTokens uint64
	// BackupReclaims counts backup copies dropped to make room, which
	// happens before any prefix block is evicted.
	BackupReclaims uint64
}

// PrefixHitRatio is the token-weighted prefix-cache hit ratio across all
// lookups, 0 when the cache saw no traffic.
func (s Stats) PrefixHitRatio() float64 {
	tot := s.PrefixHitTokens + s.PrefixMissTokens
	if tot == 0 {
		return 0
	}
	return float64(s.PrefixHitTokens) / float64(tot)
}

// Accumulate folds another manager's counters into s for cross-instance
// aggregation: counters add, PeakBlocks takes the max (peaks on distinct
// GPUs are concurrent, not sequential).
func (s *Stats) Accumulate(o Stats) {
	s.SwapOutEvents += o.SwapOutEvents
	s.SwapInEvents += o.SwapInEvents
	s.SwapOutTokens += o.SwapOutTokens
	s.SwapInTokens += o.SwapInTokens
	s.FailedAllocs += o.FailedAllocs
	s.SwapInFailures += o.SwapInFailures
	s.PrefixLookups += o.PrefixLookups
	s.PrefixHitTokens += o.PrefixHitTokens
	s.PrefixMissTokens += o.PrefixMissTokens
	s.PrefixEvictions += o.PrefixEvictions
	s.PrefixDemotions += o.PrefixDemotions
	s.PrefixRestores += o.PrefixRestores
	s.PrefixRestoredTokens += o.PrefixRestoredTokens
	s.BackupReclaims += o.BackupReclaims
	if o.PeakBlocks > s.PeakBlocks {
		s.PeakBlocks = o.PeakBlocks
	}
}

// Holder is one request's KV allocations, at most one live handle per
// manager. A request holds KV on up to three instances at once — its
// prefill copy, its decode copy, and a backup or migration target — so
// the handles sit inline and finding the one on a manager is a pointer
// compare per slot. The zero value holds nothing.
type Holder struct {
	held [3]*Alloc
}

// On returns the holder's live allocation on m, or nil. It clears the
// dead handles it passes, so a request does not pin the chunk of a handle
// that died under it.
func (h *Holder) On(m *Manager) *Alloc {
	for i, t := range h.held {
		if t.LiveOn(m) {
			return t
		}
		if !t.live() {
			h.held[i] = nil
		}
	}
	return nil
}

// slot returns the slot for a new allocation on m: one whose handle is
// dead. A live allocation on m already is an error, as is a full holder.
func (h *Holder) slot(m *Manager, id RequestID) (**Alloc, error) {
	if h.On(m) != nil {
		return nil, fmt.Errorf("kvcache: request %d already allocated", id)
	}
	for i, t := range h.held {
		if !t.live() {
			return &h.held[i], nil
		}
	}
	return nil, fmt.Errorf("kvcache: request %d already holds KV on %d instances", id, len(h.held))
}

// Manager is a block allocator for one serving instance. It is not
// goroutine-safe; the event-driven simulation is single-threaded.
type Manager struct {
	blockSize int
	gpuBlocks int
	gpuFree   int
	cpuBlocks int
	cpuFree   int
	// epoch kills every handle at once: a handle is live only while its
	// epoch matches, and Reset moves it on. It starts at 1, so the zero
	// epoch of a released handle never matches.
	epoch uint64
	// live counts the live allocations.
	live  int
	stats Stats
	// chunk is the unused rest of the block new handles are carved from.
	// A released handle is never handed out again: it must stay dead.
	chunk []Alloc

	// backups lists the live allocations flagged as backup copies, the
	// only ones dropBackups may reclaim.
	backups []*Alloc

	// Prefix-cache state (see prefix.go); a nil map when disabled.
	// prefix holds each group's chain; gpuIdle/hostIdle are each tier's
	// unreferenced blocks by recency. Blocks come from slab, or first
	// from freeBlocks; carved counts those taken from slabs.
	prefixMode bool
	tiered     bool
	prefix     map[uint64][]*pblock
	useSeq     uint64
	gpuIdle    idleHeap
	hostIdle   idleHeap
	slab       []pblock
	freeBlocks []*pblock
	carved     int
}

// New creates a manager with capacity for gpuTokens of KV cache on device
// and cpuTokens of swap space, in blocks of blockSize tokens.
func New(gpuTokens, cpuTokens, blockSize int) (*Manager, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("kvcache: block size %d must be positive", blockSize)
	}
	if gpuTokens < 0 || cpuTokens < 0 {
		return nil, fmt.Errorf("kvcache: negative capacity")
	}
	g, c := gpuTokens/blockSize, cpuTokens/blockSize
	return &Manager{
		blockSize: blockSize,
		gpuBlocks: g, gpuFree: g,
		cpuBlocks: c, cpuFree: c,
		epoch: 1,
	}, nil
}

// MustNew is New that panics on error.
func MustNew(gpuTokens, cpuTokens, blockSize int) *Manager {
	m, err := New(gpuTokens, cpuTokens, blockSize)
	if err != nil {
		panic(err)
	}
	return m
}

// BlockSize returns tokens per block.
func (m *Manager) BlockSize() int { return m.blockSize }

// BlocksFor returns the number of blocks needed to hold tokens.
func (m *Manager) BlocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + m.blockSize - 1) / m.blockSize
}

// TotalBlocks returns total GPU block capacity.
func (m *Manager) TotalBlocks() int { return m.gpuBlocks }

// FreeBlocks returns currently free GPU blocks.
func (m *Manager) FreeBlocks() int { return m.gpuFree }

// UsedBlocks returns currently allocated GPU blocks.
func (m *Manager) UsedBlocks() int { return m.gpuBlocks - m.gpuFree }

// FreeTokens returns the token capacity of the free GPU blocks.
func (m *Manager) FreeTokens() int { return m.gpuFree * m.blockSize }

// Utilization returns the used fraction of GPU blocks (0 when empty, and
// 0 for a zero-capacity manager).
func (m *Manager) Utilization() float64 {
	if m.gpuBlocks == 0 {
		return 0
	}
	return float64(m.UsedBlocks()) / float64(m.gpuBlocks)
}

// Stats returns a copy of the accumulated statistics.
func (m *Manager) Stats() Stats { return m.stats }

// LiveAllocs returns the number of live allocations, on GPU or swapped,
// whether or not they hold blocks.
func (m *Manager) LiveAllocs() int { return m.live }

// Allocate reserves GPU blocks for request id's new allocation with the
// given context length, keeps its handle in h and returns it. h must hold
// nothing live on m yet. In prefix mode a shortfall first reclaims
// backups and then idle prefix blocks.
func (m *Manager) Allocate(h *Holder, id RequestID, tokens int) (*Alloc, error) {
	return m.allocate(h, id, tokens, true)
}

func (m *Manager) allocate(h *Holder, id RequestID, tokens int, reclaim bool) (*Alloc, error) {
	s, err := h.slot(m, id)
	if err != nil {
		return nil, err
	}
	need := m.BlocksFor(tokens)
	if need > m.gpuFree && (!reclaim || !m.ensureFree(need)) {
		m.stats.FailedAllocs++
		return nil, ErrNoSpace
	}
	m.gpuFree -= need
	*s = m.newAlloc(Alloc{id: id, tokens: tokens, blocks: need, loc: OnGPU})
	m.touchPeak()
	return *s, nil
}

// allocChunk is how many handles one heap allocation holds: enough to
// make handles nearly free, few enough that a long-lived request pins
// only 2 KiB of dead ones. 64 added 2 MiB of peak RSS to a 16-replica
// fleet run, whose long decodes each pin a chunk.
const allocChunk = 32

// newAlloc places a into a fresh live handle on m, carved from the
// current chunk.
func (m *Manager) newAlloc(a Alloc) *Alloc {
	if len(m.chunk) == 0 {
		m.chunk = make([]Alloc, allocChunk)
	}
	t := &m.chunk[0]
	m.chunk = m.chunk[1:]
	*t = a
	t.m, t.epoch = m, m.epoch
	m.live++
	return t
}

// live reports whether the handle still names an allocation.
func (t *Alloc) live() bool { return t != nil && t.epoch == t.m.epoch }

// LiveOn reports whether the handle still names an allocation on m. It is
// false for a nil handle, a handle from another manager, and a dead one.
func (t *Alloc) LiveOn(m *Manager) bool { return t != nil && t.m == m && t.epoch == m.epoch }

// Tokens returns the allocation's context length, 0 once it is dead.
func (t *Alloc) Tokens() int {
	if !t.live() {
		return 0
	}
	return t.tokens
}

// Location returns where a live allocation's private blocks are.
func (t *Alloc) Location() Location { return t.loc }

// IsBackup reports whether the handle names a live backup copy.
func (t *Alloc) IsBackup() bool { return t.live() && t.isBackup }

// Cap is the token capacity of the blocks the allocation holds, shared
// prefix blocks included: a Grow to at most Cap takes no new block.
func (t *Alloc) Cap() int { return (t.shared + t.blocks) * t.m.blockSize }

// Grow extends the allocation to newTokens total (e.g. one more token per
// decode step). Shrinking is not supported; growing a swapped allocation
// is an error, and a nil or dead handle reports ErrUnknownRequest.
func (t *Alloc) Grow(newTokens int) error {
	if !t.live() {
		return ErrUnknownRequest
	}
	if t.loc != OnGPU {
		return fmt.Errorf("kvcache: request %d is swapped out", t.id)
	}
	if newTokens < t.tokens {
		return fmt.Errorf("kvcache: cannot shrink request %d from %d to %d tokens", t.id, t.tokens, newTokens)
	}
	m := t.m
	// Held blocks always equal BlocksFor(tokens), so a grow that still
	// fits them needs no blocks and cannot move the peak.
	if newTokens <= t.Cap() {
		t.tokens = newTokens
		return nil
	}
	need := m.BlocksFor(newTokens) - t.shared - t.blocks
	if need > m.gpuFree && !m.ensureFree(need) {
		m.stats.FailedAllocs++
		return ErrNoSpace
	}
	if t.epoch == 0 { // a growing backup was itself reclaimed to make room
		return ErrUnknownRequest
	}
	m.gpuFree -= need
	t.blocks += need
	t.tokens = newTokens
	m.touchPeak()
	return nil
}

// Release frees the allocation's private blocks (on GPU or in swap) and
// drops its references on shared prefix blocks, which stay cached until
// evicted. The handle dies; a nil or dead one reports ErrUnknownRequest.
func (t *Alloc) Release() error {
	if !t.live() {
		return ErrUnknownRequest
	}
	m := t.m
	if t.loc == OnGPU {
		m.gpuFree += t.blocks
	} else {
		m.cpuFree += t.blocks
	}
	m.derefShared(t)
	m.drop(t)
	return nil
}

// drop kills a live handle.
func (m *Manager) drop(t *Alloc) {
	m.unback(t)
	t.epoch = 0
	m.live--
}

// SwapOut moves the allocation's blocks to host memory, freeing GPU
// blocks. Returns the number of tokens moved (for transfer timing).
func (t *Alloc) SwapOut() (tokens int, err error) {
	if !t.live() {
		return 0, ErrUnknownRequest
	}
	if t.loc == Swapped {
		return 0, fmt.Errorf("kvcache: request %d already swapped", t.id)
	}
	m := t.m
	if t.blocks > m.cpuFree && !m.ensureHostFree(t.blocks) {
		return 0, ErrNoCPUSpace
	}
	m.gpuFree += t.blocks
	m.cpuFree -= t.blocks
	t.loc = Swapped
	moved := t.privateTokens(m.blockSize)
	m.stats.SwapOutEvents++
	m.stats.SwapOutTokens += uint64(moved)
	return moved, nil
}

// SwapIn moves a swapped allocation's blocks back to GPU memory.
// Returns the number of tokens moved.
func (t *Alloc) SwapIn() (tokens int, err error) {
	if !t.live() {
		return 0, ErrUnknownRequest
	}
	if t.loc == OnGPU {
		return 0, fmt.Errorf("kvcache: request %d is not swapped", t.id)
	}
	m := t.m
	if t.blocks > m.gpuFree && !m.ensureFree(t.blocks) {
		m.stats.SwapInFailures++
		return 0, ErrNoSpace
	}
	m.gpuFree -= t.blocks
	m.cpuFree += t.blocks
	t.loc = OnGPU
	moved := t.privateTokens(m.blockSize)
	m.stats.SwapInEvents++
	m.stats.SwapInTokens += uint64(moved)
	m.touchPeak()
	return moved, nil
}

// AllocateBackup reserves GPU blocks holding a *copy* of another
// instance's KV cache for a request (WindServe's migration-cost
// optimization, §3.3). Backups are identical to normal allocations except
// they are flagged, so the engine can reclaim them first under pressure.
func (m *Manager) AllocateBackup(h *Holder, id RequestID, tokens int) (*Alloc, error) {
	// A backup is an opportunistic use of spare memory, so it never
	// reclaims other backups or cached prefix blocks to fit.
	t, err := m.allocate(h, id, tokens, false)
	if err != nil {
		return nil, err
	}
	t.isBackup = true
	m.backups = append(m.backups, t)
	return t, nil
}

// Promote converts a backup into a normal allocation (when the backed-up
// request is actually rescheduled here).
func (t *Alloc) Promote() error {
	if !t.live() {
		return ErrUnknownRequest
	}
	t.m.unback(t)
	return nil
}

// unback makes t a plain allocation, off the backup list.
func (m *Manager) unback(t *Alloc) {
	if t.isBackup {
		i := slices.Index(m.backups, t)
		m.backups = slices.Delete(m.backups, i, i+1)
		t.isBackup = false
	}
}

// Reset drops every allocation — GPU, swap, backups, and the shared
// prefix pool on both tiers — restoring full free capacity, as when an
// instance crashes and its memory contents are lost. Moving the epoch on
// kills every handle without visiting one. Statistics accumulate across
// resets so a run's totals survive; prefix mode stays enabled and the pool
// refills from post-crash traffic.
func (m *Manager) Reset() {
	m.gpuFree = m.gpuBlocks
	m.cpuFree = m.cpuBlocks
	m.epoch++
	m.live, m.backups = 0, nil
	if m.prefixMode {
		m.prefix = make(map[uint64][]*pblock)
		m.slab, m.freeBlocks, m.carved = nil, nil, 0
		clear(m.gpuIdle)
		clear(m.hostIdle)
		m.gpuIdle, m.hostIdle = m.gpuIdle[:0], m.hostIdle[:0]
	}
}

func (m *Manager) touchPeak() {
	if used := m.UsedBlocks(); used > m.stats.PeakBlocks {
		m.stats.PeakBlocks = used
	}
}

func (m *Manager) String() string {
	return fmt.Sprintf("kvcache: %d/%d GPU blocks used (%.0f%%), %d/%d CPU blocks used, %d requests",
		m.UsedBlocks(), m.gpuBlocks, 100*m.Utilization(), m.cpuBlocks-m.cpuFree, m.cpuBlocks, m.live)
}
