package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"windserve/internal/sim"
)

// hopMsg is the synthetic workload: a token bouncing between actors,
// burning one hop per delivery.
type hopMsg struct {
	token int
	hops  int
}

// fixedGrid is the reference window derivation the adaptive bound
// replaced: the fixed grid of [kL, (k+1)L) windows, jumping to the cell
// that contains tmin. When tmin sits on a grid boundary within float
// rounding, tmin/L can round down and leave tmin at (not before) wend —
// bump until the window strictly contains it. wend <= tmin + L keeps every
// in-window send delivering outside the window. Installed through
// Group.windowEnd, it keeps the adaptive derivation honest: both must
// produce the same trace.
func fixedGrid(tmin, L sim.Time) sim.Time {
	k := sim.Time(int64(tmin / L))
	wend := (k + 1) * L
	for wend <= tmin {
		k++
		wend = (k + 1) * L
	}
	return wend
}

// buildRing wires nActors over nShards (actor a on shard a%nShards).
// Each delivery appends to the actor's trace and forwards the token to
// (a+1)%nActors with a delay that varies by token, plus schedules a local
// event to exercise native/delivered interleaving. Returns the per-actor
// traces, merged in actor order after the run.
// windowEnd nil runs the adaptive derivation.
func runRing(t *testing.T, nShards, nActors int, parallel bool, windowEnd func(tmin, L sim.Time) sim.Time) string {
	t.Helper()
	const L = sim.Duration(0.5)
	g := NewGroup[hopMsg](nShards, L)
	g.windowEnd = windowEnd
	g.GrowActors(nActors)
	traces := make([][]string, nActors)
	shardOf := func(a int) int { return a % nShards }
	for i := 0; i < nShards; i++ {
		sh := g.Shard(i)
		sh.OnMessage(func(src int, m hopMsg) {
			// Identify the receiving actor from the token's path.
			a := (src + 1) % nActors
			traces[a] = append(traces[a],
				fmt.Sprintf("recv a%d t=%.6f src=%d tok=%d hops=%d", a, sh.Sim().Now(), src, m.token, m.hops))
			sh.Sim().Schedule(0.1, func() {
				traces[a] = append(traces[a], fmt.Sprintf("local a%d t=%.6f tok=%d", a, sh.Sim().Now(), m.token))
			})
			if m.hops > 0 {
				d := L * sim.Duration(1+m.token%3)
				sh.Send(shardOf((a+1)%nActors), a, d, hopMsg{token: m.token, hops: m.hops - 1})
			}
		})
	}
	// Seed: each actor launches one token at a staggered start time.
	for a := 0; a < nActors; a++ {
		a := a
		sh := g.Shard(shardOf(a))
		sh.Sim().At(sim.Time(a)*0.3, func() {
			traces[a] = append(traces[a], fmt.Sprintf("seed a%d t=%.6f", a, sh.Sim().Now()))
			sh.Send(shardOf((a+1)%nActors), a, L, hopMsg{token: a, hops: 12})
		})
	}
	g.Run(parallel)
	var b strings.Builder
	for a := 0; a < nActors; a++ {
		for _, line := range traces[a] {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestByteIdentityAcrossShardCounts is the core determinism property: the
// merged trace must be identical at every shard count, sequential or
// parallel, under the adaptive windows and the fixed reference grid.
func TestByteIdentityAcrossShardCounts(t *testing.T) {
	const actors = 7
	want := runRing(t, 1, actors, false, nil)
	if !strings.Contains(want, "recv") {
		t.Fatalf("reference run produced no deliveries:\n%s", want)
	}
	grids := map[string]func(tmin, L sim.Time) sim.Time{"adaptive": nil, "fixed": fixedGrid}
	for name, grid := range grids {
		for _, shards := range []int{1, 2, 3, 4, 7} {
			for _, parallel := range []bool{false, true} {
				got := runRing(t, shards, actors, parallel, grid)
				if got != want {
					t.Errorf("grid=%s shards=%d parallel=%v diverged from sequential run", name, shards, parallel)
				}
			}
		}
	}
}

// TestAdaptiveCutsCrossings: on a sparse workload where activity hops
// between shards separated by idle gaps much wider than L, the adaptive
// barrier must cross far fewer times than the fixed grid (that is its
// entire purpose), while producing the same trace. The fixed grid
// synchronized every shard in every window, so each of its windows counts
// as a crossing.
func TestAdaptiveCutsCrossings(t *testing.T) {
	run := func(windowEnd func(tmin, L sim.Time) sim.Time) (string, Stats) {
		const L = sim.Duration(0.5)
		g := NewGroup[hopMsg](2, L)
		g.windowEnd = windowEnd
		g.GrowActors(2)
		var trace strings.Builder
		for i := 0; i < 2; i++ {
			sh := g.Shard(i)
			sh.OnMessage(func(src int, m hopMsg) {
				fmt.Fprintf(&trace, "recv t=%.6f src=%d hops=%d\n", sh.Sim().Now(), src, m.hops)
				if m.hops > 0 {
					// ~40L of idle virtual time between hops.
					sh.Send(1-sh.Index(), 1-src, 20, hopMsg{hops: m.hops - 1})
				}
			})
		}
		g.Shard(0).Sim().At(0, func() { g.Shard(0).Send(1, 0, 20, hopMsg{hops: 30}) })
		g.Run(false)
		return trace.String(), g.Stats()
	}
	aTrace, aStats := run(nil)
	fTrace, fStats := run(fixedGrid)
	if aTrace != fTrace {
		t.Fatalf("adaptive trace diverged from fixed grid:\n%s\nvs\n%s", aTrace, fTrace)
	}
	t.Logf("adaptive crossings %d, fixed-grid crossings %d", aStats.Crossings, fStats.Windows)
	if aStats.Crossings*3 > fStats.Windows {
		t.Errorf("adaptive crossings %d not >=3x below fixed %d", aStats.Crossings, fStats.Windows)
	}
	if aStats.Windows != aStats.Crossings+aStats.SoloWindows {
		t.Errorf("stats identity broken: %+v", aStats)
	}
	if aStats.Delivered != fStats.Delivered || aStats.Delivered == 0 {
		t.Errorf("delivered mismatch: adaptive %d fixed %d", aStats.Delivered, fStats.Delivered)
	}
}

// TestEndCap checks SetEnd matches sequential Run semantics: events at
// <= end fire, later ones stay pending, and LastFired reflects the last
// event actually executed.
func TestEndCap(t *testing.T) {
	g := NewGroup[int](2, 1)
	g.GrowActors(2)
	var fired []sim.Time
	for i := 0; i < 2; i++ {
		sh := g.Shard(i)
		sh.OnMessage(func(src int, m int) {})
		for _, at := range []sim.Time{0.25, 3.75, 9.5, 20} {
			at := at
			s := sh.Sim()
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
	}
	g.SetEnd(9.5)
	g.Run(false)
	if len(fired) != 6 {
		t.Fatalf("fired %d events, want 6 (three per shard at <= 9.5): %v", len(fired), fired)
	}
	if !g.AnyPending() {
		t.Fatal("events at t=20 should remain pending past the cap")
	}
	if lf := g.LastFired(); lf != 9.5 {
		t.Fatalf("LastFired = %v, want 9.5", lf)
	}
}

// TestWindowSkipping: sparse events separated by huge gaps must all fire
// without executing one barrier per lookahead of empty virtual time.
func TestWindowSkipping(t *testing.T) {
	g := NewGroup[int](2, sim.Duration(0.001))
	g.GrowActors(2)
	var got []string
	for i := 0; i < 2; i++ {
		i := i
		sh := g.Shard(i)
		sh.OnMessage(func(src int, m int) {
			got = append(got, fmt.Sprintf("msg shard=%d t=%.3f v=%d", i, sh.Sim().Now(), m))
		})
	}
	s0 := g.Shard(0).Sim()
	s0.At(1e6, func() {
		got = append(got, fmt.Sprintf("fire t=%.0f", s0.Now()))
		g.Shard(0).Send(1, 0, 0.001, 42)
	})
	g.Run(false)
	want := []string{"fire t=1000000", "msg shard=1 t=1000000.001 v=42"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestLookaheadViolationPanics: sending below the lookahead must panic —
// it silently breaks causality otherwise.
func TestLookaheadViolationPanics(t *testing.T) {
	g := NewGroup[int](2, 1)
	g.GrowActors(1)
	g.Shard(0).OnMessage(func(int, int) {})
	g.Shard(1).OnMessage(func(int, int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Send with delay below lookahead did not panic")
		}
	}()
	g.Shard(0).Sim().At(0, func() { g.Shard(0).Send(1, 0, 0.5, 1) })
	g.Run(false)
}

// TestParkedWorkerWakes: shard 1 sits idle through stretches of solo
// windows long enough for its worker to exhaust its spin budget and park,
// and is then woken by messages. The parallel trace must equal the
// sequential one, and Run must return.
func TestParkedWorkerWakes(t *testing.T) {
	const wakes = 3
	run := func(parallel bool) (string, Stats) {
		g := NewGroup[int](2, 1)
		g.GrowActors(2)
		traces := make([][]string, 2)
		s0, s1 := g.Shard(0).Sim(), g.Shard(1).Sim()
		g.Shard(0).OnMessage(func(src, m int) {
			traces[0] = append(traces[0], fmt.Sprintf("reply t=%.3f v=%d", s0.Now(), m))
		})
		g.Shard(1).OnMessage(func(src, m int) {
			traces[1] = append(traces[1], fmt.Sprintf("recv t=%.3f v=%d", s1.Now(), m))
			// Local work overlapping shard 0's ticks forces crossings.
			for k := 1; k <= 8; k++ {
				k := k
				s1.Schedule(sim.Duration(k)*0.5, func() {
					traces[1] = append(traces[1], fmt.Sprintf("work t=%.3f v=%d k=%d", s1.Now(), m, k))
				})
			}
			g.Shard(1).Send(0, 1, 4.5, m*10)
		})
		// Shard 0 ticks every 2 s, one solo window per tick while shard 1
		// is idle. Every 20th tick it waits for the worker to park, then
		// messages shard 1.
		tick, sent := 0, 0
		var fire func()
		fire = func() {
			traces[0] = append(traces[0], fmt.Sprintf("tick t=%.3f", s0.Now()))
			tick++
			if tick%20 == 0 && sent < wakes {
				if parallel {
					waitParked(t, g.workers[0])
				}
				sent++
				g.Shard(0).Send(1, 0, 1, sent)
			}
			if tick < 20*wakes+20 {
				s0.Schedule(2, fire)
			}
		}
		s0.At(0, fire)
		g.Run(parallel)
		return strings.Join(traces[0], "\n") + "\n" + strings.Join(traces[1], "\n"), g.Stats()
	}
	want, _ := run(false)
	if strings.Count(want, "recv") != wakes || strings.Count(want, "reply") != wakes {
		t.Fatalf("sequential run missed deliveries:\n%s", want)
	}
	got, st := run(true)
	if got != want {
		t.Fatalf("parallel trace diverged from sequential:\n%s\nvs\n%s", got, want)
	}
	if st.Crossings == 0 {
		t.Fatal("no crossings: the woken worker never ran a window")
	}
}

// TestBarrierStress drives thousands of crossings in which every shard
// has work and messages, so the barrier's hand-offs interleave in every
// order the scheduler allows (CI runs it with -race at several
// GOMAXPROCS values). The parallel trace must equal the sequential one.
func TestBarrierStress(t *testing.T) {
	const shards, rounds = 4, 3000
	run := func(parallel bool) string {
		g := NewGroup[int](shards, 1)
		g.GrowActors(shards)
		traces := make([][]string, shards)
		for i := 0; i < shards; i++ {
			i := i
			sh := g.Shard(i)
			s := sh.Sim()
			sh.OnMessage(func(src, m int) {
				traces[i] = append(traces[i], fmt.Sprintf("t=%.2f src=%d m=%d", s.Now(), src, m))
			})
			n := 0
			var tick func()
			tick = func() {
				if n++; n < rounds {
					sh.Send((i+1)%shards, i, 1, n)
					s.Schedule(1, tick)
				}
			}
			s.At(sim.Time(i)*0.25, tick)
		}
		g.Run(parallel)
		var b strings.Builder
		for _, tr := range traces {
			b.WriteString(strings.Join(tr, "\n"))
		}
		return b.String()
	}
	if want, got := run(false), run(true); got != want {
		t.Fatal("parallel trace diverged from sequential")
	}
}

// TestPendingQueueOrder checks a shard's delivery queue against its
// specification: the pump hands out envelopes by delivery time, FIFO among
// equal times, across random interleavings of enqueues (out of order and
// tied, as varying delays produce) and deliveries (which exercise the
// compaction path).
func TestPendingQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sh := NewGroup[int](1, 1).Shard(0)
	var got []int
	sh.OnMessage(func(id, _ int) { got = append(got, id) })
	type item struct {
		at sim.Time
		id int
	}
	var ref []item
	now := sim.Time(0)
	for id := 0; id < 20000; id++ {
		if len(ref) > 0 && rng.Intn(3) == 0 {
			got = got[:0]
			sh.pump()
			if len(got) != 1 || got[0] != ref[0].id {
				t.Fatalf("op %d: pump delivered %v, want [%d]", id, got, ref[0].id)
			}
			now = ref[0].at
			ref = ref[1:]
			continue
		}
		at := now + sim.Time(rng.Intn(4))
		sh.enqueue(envelope[int]{at: at, actor: id})
		i, _ := slices.BinarySearchFunc(ref, at, func(e item, at sim.Time) int {
			if e.at <= at {
				return -1
			}
			return 1
		})
		ref = slices.Insert(ref, i, item{at, id})
	}
}

// waitParked blocks until w has parked, failing after a generous bound.
func waitParked(t *testing.T, w *waiter) {
	deadline := time.Now().Add(10 * time.Second)
	for w.state.Load() != parked {
		if time.Now().After(deadline) {
			t.Error("worker never parked")
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestSendPastActorBoundPanics: an actor id at or past the GrowActors
// bound is a caller bug; Send must say which actor and which bound.
func TestSendPastActorBoundPanics(t *testing.T) {
	g := NewGroup[int](2, 1)
	g.GrowActors(2)
	g.Shard(0).OnMessage(func(int, int) {})
	g.Shard(1).OnMessage(func(int, int) {})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "actor 2") || !strings.Contains(msg, "bound 2") {
			t.Fatalf("Send past the actor bound panicked with %q, want it to name actor 2 and bound 2", msg)
		}
	}()
	g.Shard(0).Sim().At(0, func() { g.Shard(0).Send(1, 2, 1, 1) })
	g.Run(false)
}

// BenchmarkBarrierCrossing measures a steady-state window + barrier with
// empty mailboxes across 4 shards — the hot path of a sharded run. The CI
// alloc-budget job gates this at 0 allocs/op.
func BenchmarkBarrierCrossing(b *testing.B) {
	g := NewGroup[int](4, 1)
	for i := 0; i < 4; i++ {
		sh := g.Shard(i)
		sh.OnMessage(func(int, int) {})
		s := sh.Sim()
		var tick func()
		tick = func() { s.Schedule(0.5, tick) }
		s.Schedule(0.5, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	end := sim.Time(0)
	for i := 0; i < b.N; i++ {
		end++
		g.runAll(false, windowCmd{end: end})
		g.deliver()
	}
}

// BenchmarkShardBarrierIdle measures an adaptive solo-window step: only
// one shard has events, so the coordinator derives the window end, runs
// the active shard, parks the idle shards' clocks, and sweeps empty
// outboxes — no worker handshake, and (CI-gated) no allocation.
func BenchmarkShardBarrierIdle(b *testing.B) {
	g := NewGroup[int](4, 1)
	for i := 0; i < 4; i++ {
		g.Shard(i).OnMessage(func(int, int) {})
	}
	s := g.Shard(0).Sim()
	var tick func()
	tick = func() { s.Schedule(0.5, tick) }
	s.Schedule(0.5, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.step(false) {
			b.Fatal("idle step drained")
		}
	}
	st := g.Stats()
	if st.Crossings != 0 || st.SoloWindows != int64(b.N) {
		b.Fatalf("expected all-solo windows, got %+v after %d steps", st, b.N)
	}
}

// BenchmarkBarrierMessages measures a window + barrier where every shard
// sends one message per window — the loaded steady state. Deliveries
// share each shard's pump, so the CI alloc-budget job gates this at
// 0 allocs/op too.
func BenchmarkBarrierMessages(b *testing.B) {
	const n = 4
	g := NewGroup[int](n, 1)
	g.GrowActors(n)
	for i := 0; i < n; i++ {
		i := i
		sh := g.Shard(i)
		sh.OnMessage(func(int, int) {})
		s := sh.Sim()
		var tick func()
		tick = func() {
			sh.Send((i+1)%n, i, 1, 7)
			s.Schedule(0.5, tick)
		}
		s.Schedule(0.5, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	end := sim.Time(0)
	for i := 0; i < b.N; i++ {
		end++
		g.runAll(false, windowCmd{end: end})
		g.deliver()
	}
}
