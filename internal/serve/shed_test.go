package serve

import (
	"slices"
	"testing"

	"windserve/internal/metrics"
	"windserve/internal/sim"
)

// TestShedPolicyAdmit: the one admission rule rejects at the queue-depth
// bound and records the rejection, admits below it, and its deadline
// timer expires a request exactly once when it has no first token — never
// one that produced a first token or completed in time.
func TestShedPolicyAdmit(t *testing.T) {
	s := sim.New()
	rec := metrics.NewRecorder(metrics.SLO{}, 0)
	p := ShedPolicy{MaxQueueDepth: 2, TTFTDeadline: sim.Seconds(1)}
	var expired []uint64
	deadlines := p.Deadlines(s, rec, func(id uint64) { expired = append(expired, id) })
	admit := func(id uint64, depth int) bool {
		rec.Arrive(id, 8, 4, s.Now())
		return p.Admit(s, rec, id, func() int { return depth }, deadlines)
	}

	if admit(1, 2) {
		t.Fatal("admitted at MaxQueueDepth")
	}
	if rec.InFlight(1) || len(rec.Rejected()) != 1 || rec.Rejected()[0].ID != 1 {
		t.Fatalf("rejection not recorded: in flight %v, rejected %d", rec.InFlight(1), len(rec.Rejected()))
	}
	for id := uint64(2); id <= 4; id++ {
		if !admit(id, 1) {
			t.Fatalf("request %d rejected below MaxQueueDepth", id)
		}
	}
	// Request 2 never gets a first token; 3 gets one and 4 completes, both
	// before the deadline.
	s.Schedule(sim.Seconds(0.5), func() {
		rec.FirstToken(3, s.Now())
		rec.FirstToken(4, s.Now())
		rec.Complete(4, s.Now())
	})
	s.RunAll()
	if !slices.Equal(expired, []uint64{2}) {
		t.Fatalf("expired %v, want [2]", expired)
	}

	// The zero policy builds no deadline timers, admits at any depth and
	// arms no timer.
	var zero ShedPolicy
	if zero.Deadlines(s, rec, nil) != nil {
		t.Fatal("zero policy built deadline timers")
	}
	if !zero.Admit(s, rec, 5, func() int { return 1 << 20 }, nil) || s.Pending() != 0 {
		t.Fatalf("zero policy rejected or armed a timer (%d pending)", s.Pending())
	}
}
