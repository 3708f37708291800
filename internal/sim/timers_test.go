package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// timerScript drives a fresh kernel through a seeded random stream of
// closure events and timers of two constant delays, and returns the tag
// and time of every firing interleaved with the clock and pending count
// after every scripted operation. With timers false, every timer is a
// closure scheduled where the Add would be: the closure-only
// specification the Timers queues must reproduce.
func timerScript(seed int64, timers bool) []string {
	s := New()
	rng := rand.New(rand.NewSource(seed))
	var log []string
	delay := func() Duration {
		switch x := rng.Float64(); {
		case x < 0.3:
			return 0
		case x < 0.7:
			return Duration([]float64{0.25, 0.5, 1, 1.5}[rng.Intn(4)])
		default:
			return Duration(rng.Float64() * 2)
		}
	}
	// The timer delays sit on the closure grid, so timers tie with
	// closure events and with each other.
	timerDelays := [2]Duration{0.5, 1}
	var queues [2]*Timers[int]
	var live []EventID
	next := 0
	var fire func(tag int)
	addTimer := func(k int) {
		tag := next
		next++
		if timers {
			queues[k].Add(tag)
		} else {
			s.Schedule(timerDelays[k], func() { fire(tag) })
		}
	}
	schedule := func() {
		tag := next
		next++
		live = append(live, s.Schedule(delay(), func() { fire(tag) }))
	}
	cancel := func() {
		i := rng.Intn(len(live))
		log = append(log, fmt.Sprintf("cancel %v", s.Cancel(live[i])))
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	fire = func(tag int) {
		log = append(log, fmt.Sprintf("fire %d at %v", tag, s.Now()))
		// 0.75 children per firing on average, so every run drains.
		for n := rng.Intn(4) - 1; n > 0; n-- {
			if rng.Float64() < 0.5 {
				addTimer(rng.Intn(2))
			} else {
				schedule()
			}
		}
		if len(live) > 0 && rng.Float64() < 0.2 {
			cancel()
		}
	}
	if timers {
		for k := range queues {
			queues[k] = NewTimers(s, timerDelays[k], fire)
		}
	}
	for i := 0; i < 8; i++ {
		schedule()
		addTimer(i % 2)
	}
	for op := 0; op < 400; op++ {
		switch x := rng.Float64(); {
		case x < 0.4:
			s.Step()
		case x < 0.55:
			// Park the clock on a window boundary, as the shard executor
			// does; timers added next count their delay from there.
			s.RunWindow(s.Now() + Time(delay()))
		case x < 0.7:
			addTimer(rng.Intn(2))
		case x < 0.9 || len(live) == 0:
			schedule()
		default:
			cancel()
		}
		log = append(log, fmt.Sprintf("op %d: now %v pending %d", op, s.Now(), s.Pending()))
	}
	s.RunAll()
	return append(log, fmt.Sprintf("drained: now %v pending %d", s.Now(), s.Pending()))
}

// TestTimersFireWhereClosuresWould checks that two constant-delay timer
// queues mixed with closure events fire, by tag and virtual time, exactly
// where one closure per timer would: through zero-delay lane events,
// cancels of closure events, timers added from inside callbacks, equal
// timestamps and RunWindow parks.
func TestTimersFireWhereClosuresWould(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		got, want := timerScript(seed, true), timerScript(seed, false)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d step %d: timers %q, closures %q", seed, i, g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: timers logged %d steps, closures %d", seed, len(got), len(want))
		}
	}
}

// TestTimersRejectRewoundClock pins the one case the FIFO pairing cannot
// follow: a clock rewound behind an armed timer's due time.
func TestTimersRejectRewoundClock(t *testing.T) {
	s := New()
	tq := NewTimers(s, 1, func(int) {})
	s.Schedule(2, func() {})
	s.Step()
	tq.Add(0) // due at 3
	s.Run(1)  // rewinds the clock to 1
	defer func() {
		if recover() == nil {
			t.Fatal("Add due at 2 behind a timer due at 3 did not panic")
		}
	}()
	tq.Add(1)
}

// TestTimersAllocateNothing checks that a warm timer queue arms and fires
// without allocating.
func TestTimersAllocateNothing(t *testing.T) {
	s := New()
	tq := NewTimers(s, 1, func(uint64) {})
	cycle := func() {
		for i := uint64(0); i < 64; i++ {
			tq.Add(i)
		}
		s.RunAll()
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Fatalf("64 timers armed and fired allocate %.1f objects, want 0", allocs)
	}
}
