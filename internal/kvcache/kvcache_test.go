package kvcache

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustMgr(t *testing.T, gpuTokens, cpuTokens int) *Manager {
	t.Helper()
	m, err := New(gpuTokens, cpuTokens, DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(100, 100, 0); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := New(-1, 0, 16); err == nil {
		t.Error("negative capacity accepted")
	}
	m := mustMgr(t, 160, 320)
	if m.TotalBlocks() != 10 {
		t.Errorf("TotalBlocks = %d, want 10", m.TotalBlocks())
	}
	if m.BlockSize() != 16 {
		t.Errorf("BlockSize = %d", m.BlockSize())
	}
}

func TestBlocksFor(t *testing.T) {
	m := mustMgr(t, 160, 0)
	cases := []struct{ tokens, want int }{
		{0, 0}, {-5, 0}, {1, 1}, {16, 1}, {17, 2}, {32, 2}, {33, 3},
	}
	for _, c := range cases {
		if got := m.BlocksFor(c.tokens); got != c.want {
			t.Errorf("BlocksFor(%d) = %d, want %d", c.tokens, got, c.want)
		}
	}
}

// mustAlloc allocates tokens for id on m and returns the handle.
func mustAlloc(t *testing.T, m *Manager, id RequestID, tokens int) *Alloc {
	t.Helper()
	a, err := m.Allocate(new(Holder), id, tokens)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAllocateReleaseCycle(t *testing.T) {
	m := mustMgr(t, 160, 0) // 10 blocks
	var h Holder
	a, err := m.Allocate(&h, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 7 || m.FreeBlocks() != 3 {
		t.Errorf("used/free = %d/%d, want 7/3", m.UsedBlocks(), m.FreeBlocks())
	}
	if h.On(m) != a || a.Tokens() != 100 || m.LiveAllocs() != 1 {
		t.Error("allocation not recorded")
	}
	if _, err := m.Allocate(&h, 1, 10); err == nil || !strings.Contains(err.Error(), "already allocated") {
		t.Errorf("double allocate = %v", err)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 0 || h.On(m) != nil || m.LiveAllocs() != 0 {
		t.Error("release did not free")
	}
	if err := a.Release(); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("double release = %v", err)
	}
	if h.On(m) != nil {
		t.Error("holder resolves a dead allocation")
	}
}

func TestAllocateNoSpace(t *testing.T) {
	m := mustMgr(t, 160, 0)
	if a, err := m.Allocate(new(Holder), 1, 161); !errors.Is(err, ErrNoSpace) || a != nil {
		t.Errorf("oversized alloc = %v, %v, want ErrNoSpace", a, err)
	}
	if m.Stats().FailedAllocs != 1 {
		t.Error("failed alloc not counted")
	}
	// The failed allocation took nothing: the whole capacity still fits.
	if _, err := m.Allocate(new(Holder), 2, 160); err != nil || m.FreeBlocks() != 0 {
		t.Errorf("full-capacity alloc after a failure = %v, %d blocks free", err, m.FreeBlocks())
	}
}

func TestGrow(t *testing.T) {
	m := mustMgr(t, 160, 0)
	a := mustAlloc(t, m, 1, 16)
	// Growing within the same block consumes nothing... only new blocks.
	if err := a.Grow(17); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 2 {
		t.Errorf("used = %d, want 2", m.UsedBlocks())
	}
	if err := a.Grow(10); err == nil {
		t.Error("shrink accepted")
	}
	var none *Alloc
	if err := none.Grow(20); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("grow unknown = %v", err)
	}
	if err := a.Grow(1000); !errors.Is(err, ErrNoSpace) {
		t.Errorf("grow beyond capacity = %v", err)
	}
	// Failed grow must not corrupt state.
	if a.Tokens() != 17 || m.UsedBlocks() != 2 {
		t.Error("failed grow mutated state")
	}
}

func TestSwapOutIn(t *testing.T) {
	m := mustMgr(t, 160, 160)
	a := mustAlloc(t, m, 1, 64)
	tokens, err := a.SwapOut()
	if err != nil || tokens != 64 {
		t.Fatalf("SwapOut = %d, %v", tokens, err)
	}
	if m.UsedBlocks() != 0 {
		t.Error("swap out should free GPU blocks")
	}
	if a.Location() != Swapped {
		t.Error("location should be Swapped")
	}
	if _, err := a.SwapOut(); err == nil {
		t.Error("double swap out accepted")
	}
	if err := a.Grow(65); err == nil {
		t.Error("grow while swapped accepted")
	}
	tokens, err = a.SwapIn()
	if err != nil || tokens != 64 {
		t.Fatalf("SwapIn = %d, %v", tokens, err)
	}
	if a.Location() != OnGPU {
		t.Error("location should be OnGPU after swap in")
	}
	if _, err := a.SwapIn(); err == nil {
		t.Error("swap in of resident request accepted")
	}
	st := m.Stats()
	if st.SwapOutEvents != 1 || st.SwapInEvents != 1 || st.SwapOutTokens != 64 || st.SwapInTokens != 64 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSwapOutNoCPUSpace(t *testing.T) {
	m := mustMgr(t, 160, 16) // only 1 CPU block
	if _, err := mustAlloc(t, m, 1, 64).SwapOut(); !errors.Is(err, ErrNoCPUSpace) {
		t.Errorf("SwapOut = %v, want ErrNoCPUSpace", err)
	}
}

func TestSwapInNoGPUSpace(t *testing.T) {
	m := mustMgr(t, 160, 160)
	a := mustAlloc(t, m, 1, 96)
	if _, err := a.SwapOut(); err != nil {
		t.Fatal(err)
	}
	mustAlloc(t, m, 2, 160)
	if _, err := a.SwapIn(); !errors.Is(err, ErrNoSpace) {
		t.Errorf("SwapIn with full GPU = %v, want ErrNoSpace", err)
	}
}

func TestReleaseSwappedFreesCPU(t *testing.T) {
	m := mustMgr(t, 160, 160)
	a := mustAlloc(t, m, 1, 160)
	if _, err := a.SwapOut(); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	// All CPU space should be free again: a full swap-out must succeed.
	if _, err := mustAlloc(t, m, 2, 160).SwapOut(); err != nil {
		t.Errorf("CPU space not reclaimed: %v", err)
	}
}

func TestBackups(t *testing.T) {
	m := mustMgr(t, 320, 0)
	b, err := m.AllocateBackup(new(Holder), 7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsBackup() {
		t.Error("IsBackup = false")
	}
	if mustAlloc(t, m, 8, 0).IsBackup() {
		t.Error("IsBackup of a plain allocation = true")
	}
	if got := m.UsedBlocks(); got != 7 {
		t.Errorf("backup holds %d GPU blocks, want 7", got)
	}
	if err := b.Promote(); err != nil {
		t.Fatal(err)
	}
	if b.IsBackup() || len(m.backups) != 0 {
		t.Error("promote did not clear backup flag")
	}
	if got := m.UsedBlocks(); got != 7 {
		t.Errorf("promoted allocation holds %d GPU blocks, want 7", got)
	}
	var none *Alloc
	if err := none.Promote(); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("promote unknown = %v", err)
	}
}

func TestUtilizationAndPeak(t *testing.T) {
	m := mustMgr(t, 160, 0)
	if m.Utilization() != 0 {
		t.Error("empty utilization should be 0")
	}
	a := mustAlloc(t, m, 1, 80)
	if u := m.Utilization(); u != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", u)
	}
	b := mustAlloc(t, m, 2, 80)
	a.Release()
	b.Release()
	if m.Stats().PeakBlocks != 10 {
		t.Errorf("PeakBlocks = %d, want 10", m.Stats().PeakBlocks)
	}
	zero := MustNew(0, 0, 16)
	if zero.Utilization() != 0 {
		t.Error("zero-capacity utilization should be 0")
	}
}

// TestLocationOfUnknown: a nil or dead handle is no allocation — it holds
// no tokens, is no backup, and every operation on it is ErrUnknownRequest.
func TestLocationOfUnknown(t *testing.T) {
	m := mustMgr(t, 160, 160)
	a := mustAlloc(t, m, 1, 40)
	m.Reset()
	for _, h := range []*Alloc{nil, a} {
		if h.Tokens() != 0 || h.IsBackup() || h.LiveOn(m) {
			t.Errorf("dead handle %p: %d tokens, backup %v, live %v", h, h.Tokens(), h.IsBackup(), h.LiveOn(m))
		}
		if _, err := h.SwapOut(); !errors.Is(err, ErrUnknownRequest) {
			t.Errorf("SwapOut of dead handle = %v", err)
		}
		if _, err := h.SwapIn(); !errors.Is(err, ErrUnknownRequest) {
			t.Errorf("SwapIn of dead handle = %v", err)
		}
		if err := h.Release(); !errors.Is(err, ErrUnknownRequest) {
			t.Errorf("Release of dead handle = %v", err)
		}
	}
	if m.FreeBlocks() != m.TotalBlocks() || m.LiveAllocs() != 0 {
		t.Errorf("operations on dead handles moved blocks: %v", m)
	}
}

func TestStringer(t *testing.T) {
	m := mustMgr(t, 160, 160)
	mustAlloc(t, m, 1, 32)
	mustAlloc(t, m, 2, 0)
	if s := m.String(); !strings.Contains(s, "2/10") || !strings.Contains(s, "2 requests") {
		t.Errorf("String = %q", s)
	}
}

// Property: block accounting is conserved across random operation
// sequences — gpuFree + Σ resident blocks == capacity, and likewise for
// CPU swap space.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := MustNew(64*16, 32*16, 16)
		live := map[RequestID]*Alloc{}
		next := RequestID(1)
		for op := 0; op < 300; op++ {
			switch rng.Intn(5) {
			case 0: // allocate
				id := next
				next++
				if a, err := m.Allocate(new(Holder), id, rng.Intn(200)+1); err == nil {
					live[id] = a
				}
			case 1: // grow
				for _, a := range live {
					if a.Location() == OnGPU {
						a.Grow(a.Tokens() + rng.Intn(40) + 1)
					}
					break
				}
			case 2: // release
				for id, a := range live {
					a.Release()
					delete(live, id)
					break
				}
			case 3: // swap out
				for _, a := range live {
					if a.Location() == OnGPU {
						a.SwapOut()
					}
					break
				}
			case 4: // swap in
				for _, a := range live {
					if a.Location() == Swapped {
						a.SwapIn()
					}
					break
				}
			}
			// Invariants.
			gpuHeld, cpuHeld := 0, 0
			for _, a := range live {
				if !a.LiveOn(m) {
					return false
				}
				blocks := m.BlocksFor(a.Tokens())
				if a.Location() == OnGPU {
					gpuHeld += blocks
				} else {
					cpuHeld += blocks
				}
			}
			if m.UsedBlocks() != gpuHeld || m.LiveAllocs() != len(live) {
				return false
			}
			if m.FreeBlocks()+gpuHeld != 64 {
				return false
			}
			if m.FreeBlocks() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
