package kvcache

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// refManager is the reference the handle API is checked against: the
// manager as it was when allocations were reached by request ID, reduced
// to what a request's allocation on one manager holds.
type refManager struct {
	m        *Manager
	tables   map[RequestID]*refAlloc
	reclaims uint64 // m's BackupReclaims already applied
}

type refAlloc struct {
	tokens int
	loc    Location
	backup bool
}

// syncReclaims drops the backups m reclaimed since the last call: the
// GPU-resident ones with the lowest request IDs. An operation that may
// reclaim calls it before applying its own effect, so the reference sees
// the backups as the reclaim did.
func (r *refManager) syncReclaims() {
	n := r.m.Stats().BackupReclaims - r.reclaims
	r.reclaims += n
	var ids []RequestID
	for id, a := range r.tables {
		if a.backup && a.loc == OnGPU {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids[:n] {
		delete(r.tables, id)
	}
}

// TestAllocHandleMatchesReference drives four managers — two tiered
// prefix caches, an untiered one and a plain one — with one seeded random
// sequence of allocations (plain, backup, prefixed), grows, swaps,
// releases, promotions and resets, each request holding its handles in a
// Holder. After every step each request's handle on each manager must
// agree with the map-keyed reference on liveness, tokens, location and
// backup flag; every handle no longer held must be dead and must not
// grow or release; and each manager's blocks must be conserved.
func TestAllocHandleMatchesReference(t *testing.T) {
	const ids = 12
	var reclaims, resets, reallocs, staleGrows, doubles, fulls int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		refs := make([]*refManager, 4)
		for i := range refs {
			m := MustNew(64*DefaultBlockSize, 32*DefaultBlockSize, DefaultBlockSize)
			if i < 3 {
				m.EnablePrefixCache(i < 2)
			}
			refs[i] = &refManager{m: m, tables: map[RequestID]*refAlloc{}}
		}
		var holders [ids + 1]Holder
		var taken []*Alloc // every handle ever returned
		released := map[RequestID]bool{}
		for step := 0; step < 3000; step++ {
			ri := rng.Intn(len(refs))
			ref, m := refs[ri], refs[ri].m
			id := RequestID(1 + rng.Intn(ids))
			h := &holders[id]
			n := 1 + rng.Intn(400)
			e := ref.tables[id]
			a := h.On(m)
			held := 0
			for _, r := range refs {
				if r.tables[id] != nil {
					held++
				}
			}
			where := func(op string) string {
				return fmt.Sprintf("seed %d step %d %s(%d) on manager %d", seed, step, op, id, ri)
			}
			var op string
			var err error
			switch r := rng.Intn(100); {
			case r < 28:
				var got *Alloc
				switch {
				case r < 14:
					op = "allocate"
					got, err = m.Allocate(h, id, n)
				case r < 21:
					op = "backup"
					got, err = m.AllocateBackup(h, id, n)
				default:
					op = "prefixed"
					got, _, err = m.AllocatePrefixed(h, id, n, uint64(1+rng.Intn(3)), 32+rng.Intn(160))
				}
				ref.syncReclaims()
				switch {
				case e != nil:
					if err == nil || !strings.Contains(err.Error(), "already allocated") {
						t.Fatalf("%s: second allocation = %v, want already allocated", where(op), err)
					}
					doubles++
				case held == len(h.held):
					if err == nil || !strings.Contains(err.Error(), "already holds KV") {
						t.Fatalf("%s: allocation past a full holder = %v", where(op), err)
					}
					fulls++
				case err == nil:
					if got != h.On(m) || !got.LiveOn(m) {
						t.Fatalf("%s: returned handle %p, holder resolves %p", where(op), got, h.On(m))
					}
					ref.tables[id] = &refAlloc{tokens: n, backup: op == "backup"}
					taken = append(taken, got)
					if released[id] {
						reallocs++
						delete(released, id)
					}
				case !errors.Is(err, ErrNoSpace) || got != nil:
					t.Fatalf("%s: failed allocation = %p, %v", where(op), got, err)
				}
			case r < 65:
				op = "grow"
				to := e.tokensOr0() + rng.Intn(48)
				err = a.Grow(to)
				ref.syncReclaims()
				switch {
				case e == nil:
					if !errors.Is(err, ErrUnknownRequest) {
						t.Fatalf("%s: grow without allocation = %v", where(op), err)
					}
				case e.loc == Swapped:
					if err == nil {
						t.Fatalf("%s: swapped allocation grew", where(op))
					}
				case err == nil:
					e.tokens = to
				case !errors.Is(err, ErrNoSpace) && !errors.Is(err, ErrUnknownRequest):
					t.Fatalf("%s: grow = %v", where(op), err)
				}
			case r < 75:
				op = "swap-out"
				_, err = a.SwapOut()
				switch {
				case e == nil:
					if !errors.Is(err, ErrUnknownRequest) {
						t.Fatalf("%s: %v", where(op), err)
					}
				case err == nil:
					if e.loc != OnGPU {
						t.Fatalf("%s: swapped allocation swapped out again", where(op))
					}
					e.loc = Swapped
				case e.loc == OnGPU && !errors.Is(err, ErrNoCPUSpace):
					t.Fatalf("%s: %v", where(op), err)
				}
			case r < 83:
				op = "swap-in"
				_, err = a.SwapIn()
				ref.syncReclaims()
				switch {
				case e == nil:
					if !errors.Is(err, ErrUnknownRequest) {
						t.Fatalf("%s: %v", where(op), err)
					}
				case err == nil:
					if e.loc != Swapped {
						t.Fatalf("%s: resident allocation swapped in", where(op))
					}
					e.loc = OnGPU
				case e.loc == Swapped && !errors.Is(err, ErrNoSpace):
					t.Fatalf("%s: %v", where(op), err)
				}
			case r < 93:
				op = "release"
				if err = a.Release(); (err == nil) != (e != nil) {
					t.Fatalf("%s: release = %v, reference holds %v", where(op), err, e != nil)
				}
				if e != nil {
					delete(ref.tables, id)
					released[id] = true
				}
			case r < 98:
				op = "promote"
				if err = a.Promote(); (err == nil) != (e != nil) {
					t.Fatalf("%s: promote = %v, reference holds %v", where(op), err, e != nil)
				}
				if e != nil {
					e.backup = false
				}
			default:
				op = "reset"
				m.Reset()
				clear(ref.tables)
				resets++
			}
			if op == "grow" && errors.Is(err, ErrUnknownRequest) && ref.tables[id] != nil {
				t.Fatalf("%s: live allocation reported unknown", where(op))
			}
			checkHolders(t, refs, holders[:], where(op))
			for _, a := range taken {
				if holders[a.id].On(a.m) == a {
					continue
				}
				if a.LiveOn(a.m) {
					t.Fatalf("%s: dropped handle for %d still live", where(op), a.id)
				}
				free := a.m.FreeBlocks()
				if err := a.Grow(a.tokens + 4*DefaultBlockSize); !errors.Is(err, ErrUnknownRequest) {
					t.Fatalf("%s: stale handle for %d grew: %v", where(op), a.id, err)
				}
				if err := a.Release(); !errors.Is(err, ErrUnknownRequest) {
					t.Fatalf("%s: stale handle for %d released: %v", where(op), a.id, err)
				}
				if a.m.FreeBlocks() != free {
					t.Fatalf("%s: stale handle for %d took blocks", where(op), a.id)
				}
				staleGrows++
			}
		}
		for _, r := range refs {
			reclaims += int(r.reclaims)
		}
	}
	if reclaims == 0 || resets == 0 || reallocs == 0 || staleGrows == 0 || doubles == 0 || fulls == 0 {
		t.Errorf("sequence too tame: %d backup reclaims, %d resets, %d re-allocations, %d stale grows, "+
			"%d double and %d full-holder allocations", reclaims, resets, reallocs, staleGrows, doubles, fulls)
	}
}

func (e *refAlloc) tokensOr0() int {
	if e == nil {
		return 0
	}
	return e.tokens
}

// checkHolders asserts that every request's handle on every manager
// matches the reference, and that each manager's blocks are conserved.
func checkHolders(t *testing.T, refs []*refManager, holders []Holder, where string) {
	t.Helper()
	for _, ref := range refs {
		var live []*Alloc
		for id := range holders {
			a, e := holders[id].On(ref.m), ref.tables[RequestID(id)]
			if (a != nil) != (e != nil) {
				t.Fatalf("%s: request %d on manager %p: handle live %v, reference holds %v", where, id, ref.m, a != nil, e != nil)
			}
			if a == nil {
				continue
			}
			if a.Tokens() != e.tokens || a.Location() != e.loc || a.IsBackup() != e.backup {
				t.Fatalf("%s: request %d: handle holds %d tokens at %v backup %v, reference %+v",
					where, id, a.Tokens(), a.Location(), a.IsBackup(), *e)
			}
			live = append(live, a)
		}
		checkIdleHeaps(t, ref.m, live, where)
	}
}

// TestAllocHandleOtherManager: a handle resolves only on its own manager,
// and a holder keeps one allocation per manager.
func TestAllocHandleOtherManager(t *testing.T) {
	a, b := mustMgr(t, 1600, 0), mustMgr(t, 1600, 0)
	var h Holder
	ha, err := a.Allocate(&h, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Allocate(&h, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !ha.LiveOn(a) || ha.LiveOn(b) {
		t.Fatalf("LiveOn(a)=%v LiveOn(b)=%v, want true, false", ha.LiveOn(a), ha.LiveOn(b))
	}
	if h.On(a) != ha || h.On(b) != hb {
		t.Fatal("holder resolves the wrong handle")
	}
	var none *Alloc
	if none.LiveOn(a) || !errors.Is(none.Grow(20), ErrUnknownRequest) {
		t.Error("nil handle must be dead")
	}
	var empty Holder
	if empty.On(a) != nil {
		t.Error("empty holder resolved to a handle")
	}
}

// TestReleasedHandleStaysDead: handles come from shared chunks, but a
// released one is never handed out again. After more allocations than a
// chunk holds, the same ID among them, the old handle is still dead.
func TestReleasedHandleStaysDead(t *testing.T) {
	if got := unsafe.Sizeof(Alloc{}); got != 64 {
		t.Fatalf("Alloc is %d bytes, want 64: a chunk of handles must stay 2 KiB", got)
	}
	m := mustMgr(t, 1<<20, 0)
	h := mustAlloc(t, m, 1, 10)
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	var again *Alloc
	for id := RequestID(1); id <= 3*allocChunk; id++ {
		a := mustAlloc(t, m, id, 10)
		if id == 1 {
			again = a
		}
		if id%2 == 0 {
			if err := a.Release(); err != nil {
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
	if again.Tokens() != 10 || again == h {
		t.Errorf("re-allocated request 1: %d tokens, same handle %v", again.Tokens(), again == h)
	}
}
