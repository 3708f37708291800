package xfer

import (
	"math"
	"testing"
	"testing/quick"

	"windserve/internal/gpu"
	"windserve/internal/sim"
)

func TestTransferTimeMatchesPaperExample(t *testing.T) {
	// Paper §2.2: ~1.5 GB of KV over PCIe Gen4 ×16 takes ~65 ms.
	s := sim.New()
	l := NewLink(s, "pcie", gpu.PCIeGen4, DefaultEfficiency)
	d := l.TransferTime(1.5e9)
	if ms := d.Milliseconds(); ms < 55 || ms > 75 {
		t.Errorf("1.5 GB PCIe transfer = %.1f ms, want ~65 ms", ms)
	}
	// NVLink makes the same payload near-free (paper: "near-zero for
	// devices with GPU high-speed interconnects").
	nv := NewLink(s, "nvlink", gpu.NVLinkBridge, DefaultEfficiency)
	if ratio := d.Seconds() / nv.TransferTime(1.5e9).Seconds(); ratio < 5 {
		t.Errorf("PCIe/NVLink ratio = %.1f, want >5", ratio)
	}
}

func TestTransferFIFOOrdering(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "link", gpu.PCIeGen4, 1)
	var done []int
	l.Transfer(32e9, func() { done = append(done, 1) }) // 1 s
	l.Transfer(16e9, func() { done = append(done, 2) }) // 0.5 s, queued
	if !l.Busy() {
		t.Fatal("link should be busy after a transfer")
	}
	s.RunAll()
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("done order = %v", done)
	}
	if l.Busy() {
		t.Error("link not drained")
	}
	if l.BytesMoved != 48e9 {
		t.Errorf("BytesMoved = %v", l.BytesMoved)
	}
}

// unitLink moves 1e9 bytes per second with no latency floor, so a
// transfer of k*1e9 bytes occupies it for exactly k seconds.
func unitLink(s *sim.Simulator) *Link {
	return NewLink(s, "link", gpu.LinkSpec{Kind: gpu.LinkPCIeSwitch, GBs: 1}, 1)
}

// TestLinkSerial: transfers are served one at a time in submission
// order, each completing its service time after the one ahead of it.
func TestLinkSerial(t *testing.T) {
	s := sim.New()
	l := unitLink(s)
	var doneAt []sim.Time
	l.Transfer(2e9, func() { doneAt = append(doneAt, s.Now()) })
	l.Transfer(3e9, func() { doneAt = append(doneAt, s.Now()) })
	l.Transfer(1e9, func() { doneAt = append(doneAt, s.Now()) })
	if !l.Busy() {
		t.Fatal("link should be busy after a transfer")
	}
	s.RunAll()
	want := []sim.Time{2, 5, 6}
	if len(doneAt) != len(want) {
		t.Fatalf("doneAt = %v, want %v", doneAt, want)
	}
	for i := range want {
		if doneAt[i] != want[i] {
			t.Fatalf("doneAt = %v, want %v", doneAt, want)
		}
	}
	if l.Busy() {
		t.Error("link not drained")
	}
}

// TestLinkZeroDuration: zero-duration transfers still complete in FIFO
// order.
func TestLinkZeroDuration(t *testing.T) {
	s := sim.New()
	l := unitLink(s)
	order := []int{}
	l.Transfer(0, func() { order = append(order, 1) })
	l.Transfer(0, func() { order = append(order, 2) })
	s.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

// TestLinkTransferFromCallback: a transfer submitted from a completion
// callback starts once the current one finishes.
func TestLinkTransferFromCallback(t *testing.T) {
	s := sim.New()
	l := unitLink(s)
	var doneAt []sim.Time
	l.Transfer(1e9, func() {
		doneAt = append(doneAt, s.Now())
		l.Transfer(1e9, func() { doneAt = append(doneAt, s.Now()) })
	})
	s.RunAll()
	if len(doneAt) != 2 || doneAt[0] != 1 || doneAt[1] != 2 {
		t.Fatalf("doneAt = %v, want [1 2]", doneAt)
	}
}

// TestLinkNeverDrains keeps a link busy across more than 10k transfers
// whose backlog rises and falls but never empties: completions still
// follow submission order back to back, and the queue's capacity stays
// within twice its peak backlog.
func TestLinkNeverDrains(t *testing.T) {
	s := sim.New()
	l := unitLink(s)
	const total = 12000
	var sizes []int // seconds of service, by submission order
	var order []int
	var doneAt []sim.Time
	peak := 0
	var submit func()
	submit = func() {
		id := len(sizes)
		sizes = append(sizes, 1+id%3)
		l.Transfer(float64(sizes[id])*1e9, func() {
			order = append(order, id)
			doneAt = append(doneAt, s.Now())
			// Each completion submits 0, 1 or 2 more, so the backlog
			// swings between 1 and ~60 without draining.
			more := 1
			switch phase := len(order) / 500 % 2; {
			case phase == 0 && id%2 == 0:
				more = 2
			case phase == 1 && id%2 == 0:
				more = 0
			}
			for k := 0; k < more && len(sizes) < total; k++ {
				submit()
			}
			if len(sizes) < total && l.head == len(l.queue) {
				t.Fatalf("queue drained after %d completions", len(order))
			}
		})
		peak = max(peak, len(l.queue)-l.head)
	}
	for k := 0; k < 8; k++ {
		submit()
	}
	s.RunAll()
	if len(order) != total {
		t.Fatalf("completed %d transfers, want %d", len(order), total)
	}
	var at sim.Time
	for i, id := range order {
		at += sim.Time(sizes[i])
		if id != i || doneAt[i] != at {
			t.Fatalf("completion %d: transfer %d at %v, want transfer %d at %v", i, id, doneAt[i], i, at)
		}
	}
	if c := cap(l.queue); c > 2*peak+4 {
		t.Errorf("queue capacity %d, peak backlog %d", c, peak)
	}
	if peak < 20 {
		t.Errorf("peak backlog %d: the test never built a deep queue", peak)
	}
}

func TestLatencyFloor(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "link", gpu.LinkSpec{Kind: gpu.LinkPCIeSwitch, GBs: 32, LatencyUS: 100}, 1)
	// Even a zero-byte transfer pays the link latency.
	if d := l.TransferTime(0); math.Abs(d.Seconds()-100e-6) > 1e-12 {
		t.Errorf("zero-byte transfer = %v, want 100us", d)
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	s := sim.New()
	for _, eff := range []float64{0, -1, 1.5} {
		eff := eff
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("efficiency %v accepted", eff)
				}
			}()
			NewLink(s, "bad", gpu.PCIeGen4, eff)
		}()
	}
	l := NewLink(s, "link", gpu.PCIeGen4, 1)
	defer func() {
		if recover() == nil {
			t.Error("negative size accepted")
		}
	}()
	l.TransferTime(-1)
}

func TestSpecAccessor(t *testing.T) {
	l := NewLink(sim.New(), "link", gpu.NVLinkBridge, 0.9)
	if l.Spec().Kind != gpu.LinkNVLink {
		t.Error("Spec lost")
	}
}

// Property: transfer time scales linearly with size above the latency
// floor, and queued transfers never complete out of order.
func TestPropertyLinearAndOrdered(t *testing.T) {
	f := func(a, b uint32) bool {
		s := sim.New()
		l := NewLink(s, "link", gpu.PCIeGen4, DefaultEfficiency)
		x, y := float64(a%1000)*1e6, float64(b%1000)*1e6
		lat := sim.Microseconds(gpu.PCIeGen4.LatencyUS)
		tx, ty := l.TransferTime(x)-lat, l.TransferTime(y)-lat
		sum := l.TransferTime(x+y) - lat
		if math.Abs((tx + ty - sum).Seconds()) > 1e-9 {
			return false
		}
		var order []int
		l.Transfer(y, func() { order = append(order, 1) })
		l.Transfer(x, func() { order = append(order, 2) })
		s.RunAll()
		return len(order) == 2 && order[0] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
