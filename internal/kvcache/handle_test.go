package kvcache

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestAllocHandleMatchesGrowByID drives two managers with one random
// operation sequence. One grows by request ID; the other grows through
// cached *Alloc handles, re-resolving one only when it stops being live,
// as the engine does. Every step must leave both with equal errors, free
// blocks, per-request tokens and statistics, and no handle taken before a
// Release, Reset or backup reclaim may ever grow the allocation that
// replaced it.
func TestAllocHandleMatchesGrowByID(t *testing.T) {
	const ids = 12
	var reclaims, resets, reallocs, staleGrows int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Manager {
			m := MustNew(64*DefaultBlockSize, 32*DefaultBlockSize, DefaultBlockSize)
			m.EnablePrefixCache(true)
			return m
		}
		byID, byRef := mk(), mk()
		cached := map[RequestID]*Alloc{}
		var taken []*Alloc // every handle ever resolved on byRef
		released := map[RequestID]bool{}
		for step := 0; step < 3000; step++ {
			id := RequestID(1 + rng.Intn(ids))
			n := 1 + rng.Intn(400)
			var op string
			var errA, errB error
			switch r := rng.Intn(100); {
			case r < 15:
				op = "allocate"
				errA, errB = byID.Allocate(id, n), byRef.Allocate(id, n)
			case r < 22:
				op = "backup"
				errA, errB = byID.AllocateBackup(id, n), byRef.AllocateBackup(id, n)
			case r < 28:
				op = "prefixed"
				g, p := uint64(1+rng.Intn(3)), 32+rng.Intn(160)
				_, errA = byID.AllocatePrefixed(id, n, g, p)
				_, errB = byRef.AllocatePrefixed(id, n, g, p)
			case r < 70:
				op = "grow"
				to := byID.Tokens(id) + rng.Intn(48)
				errA = byID.Grow(id, to)
				a := cached[id]
				if !a.LiveOn(byRef) {
					if a = byRef.Alloc(id); a != nil {
						cached[id] = a
						taken = append(taken, a)
					}
				}
				errB = a.Grow(to)
			case r < 80:
				op = "swap-out"
				_, errA = byID.SwapOut(id)
				_, errB = byRef.SwapOut(id)
			case r < 88:
				op = "swap-in"
				_, errA = byID.SwapIn(id)
				_, errB = byRef.SwapIn(id)
			case r < 98:
				op = "release"
				errA, errB = byID.Release(id), byRef.Release(id)
				if errB == nil {
					released[id] = true
				}
			default:
				op = "reset"
				byID.Reset()
				byRef.Reset()
				resets++
			}
			if fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Fatalf("seed %d step %d %s(%d): by ID %v, by handle %v", seed, step, op, id, errA, errB)
			}
			if errB == nil && released[id] && op != "release" && byRef.Has(id) {
				reallocs++
				delete(released, id)
			}
			if byID.FreeBlocks() != byRef.FreeBlocks() || byID.Stats() != byRef.Stats() {
				t.Fatalf("seed %d step %d %s(%d): free %d/%d, stats %+v / %+v", seed, step, op, id,
					byID.FreeBlocks(), byRef.FreeBlocks(), byID.Stats(), byRef.Stats())
			}
			for q := RequestID(1); q <= ids; q++ {
				if byID.Tokens(q) != byRef.Tokens(q) || byID.Has(q) != byRef.Has(q) {
					t.Fatalf("seed %d step %d %s(%d): request %d tokens %d/%d", seed, step, op, id, q,
						byID.Tokens(q), byRef.Tokens(q))
				}
			}
			for _, a := range taken {
				if byRef.Alloc(a.id) == a {
					continue
				}
				if a.LiveOn(byRef) {
					t.Fatalf("seed %d step %d %s: dropped handle for %d still live", seed, step, op, a.id)
				}
				free, tok := byRef.FreeBlocks(), byRef.Tokens(a.id)
				if err := a.Grow(a.tokens + 4*DefaultBlockSize); !errors.Is(err, ErrUnknownRequest) {
					t.Fatalf("seed %d step %d: stale handle for %d grew: %v", seed, step, a.id, err)
				}
				if byRef.FreeBlocks() != free || byRef.Tokens(a.id) != tok {
					t.Fatalf("seed %d step %d: stale handle for %d changed the live allocation", seed, step, a.id)
				}
				staleGrows++
			}
		}
		reclaims += int(byRef.Stats().BackupReclaims)
	}
	if reclaims == 0 || resets == 0 || reallocs == 0 || staleGrows == 0 {
		t.Errorf("sequence too tame: %d backup reclaims, %d resets, %d re-allocations, %d stale grows",
			reclaims, resets, reallocs, staleGrows)
	}
}

// TestAllocHandleOtherManager: a handle resolves only on its own manager.
func TestAllocHandleOtherManager(t *testing.T) {
	a, b := mustMgr(t, 1600, 0), mustMgr(t, 1600, 0)
	if err := a.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	h := a.Alloc(1)
	if !h.LiveOn(a) || h.LiveOn(b) {
		t.Fatalf("LiveOn(a)=%v LiveOn(b)=%v, want true, false", h.LiveOn(a), h.LiveOn(b))
	}
	var none *Alloc
	if none.LiveOn(a) || !errors.Is(none.Grow(20), ErrUnknownRequest) {
		t.Error("nil handle must be dead")
	}
	if b.Alloc(2) != nil {
		t.Error("unallocated request resolved to a handle")
	}
}

// TestReleasedHandleStaysDead: handles come from shared chunks, but a
// released one is never handed out again. After more allocations than a
// chunk holds, the same ID among them, the old handle is still dead.
func TestReleasedHandleStaysDead(t *testing.T) {
	m := mustMgr(t, 1<<20, 0)
	if err := m.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	h := m.Alloc(1)
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	for id := RequestID(1); id <= 3*allocChunk; id++ {
		if err := m.Allocate(id, 10); err != nil {
			t.Fatal(err)
		}
		if id%2 == 0 {
			if err := m.Release(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if h.LiveOn(m) {
		t.Fatal("released handle is live again")
	}
	if err := h.Grow(20); !errors.Is(err, ErrUnknownRequest) {
		t.Fatalf("released handle Grow = %v, want ErrUnknownRequest", err)
	}
	if m.Tokens(1) != 10 || m.Alloc(1) == h {
		t.Errorf("re-allocated request 1: %d tokens, same handle %v", m.Tokens(1), m.Alloc(1) == h)
	}
}
