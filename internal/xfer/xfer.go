// Package xfer moves KV-cache bytes across the simulated interconnect:
// cross-instance transfers after prefill (DistServe-style and WindServe's
// asynchronous overlapped variant), GPU↔host swap traffic, and the copy
// streams behind WindServe's stall-free rescheduling and KV backups.
//
// A Link is a unidirectional FIFO pipe with a protocol-efficiency factor;
// the paper's §2.2 example — ~65 ms for a 1.5 GB KV cache over PCIe Gen4
// ×16 — calibrates the default efficiency.
package xfer

import (
	"fmt"

	"windserve/internal/gpu"
	"windserve/internal/sim"
)

// DefaultEfficiency is the achieved fraction of link bandwidth for bulk
// KV copies (protocol framing, block scatter/gather). 1.5e9 bytes over
// 32 GB/s × 0.72 ≈ 65 ms, matching the paper's measurement.
const DefaultEfficiency = 0.72

// Link is a serially-shared unidirectional interconnect path: transfers
// queue and cross one at a time in submission order, each occupying the
// link for its TransferTime, so later transfers wait behind it.
type Link struct {
	sim  *sim.Simulator
	name string
	spec gpu.LinkSpec
	eff  float64
	// degrade scales effective bandwidth below nominal (fault injection);
	// 0 and 1 both mean healthy.
	degrade float64

	// cur is the done of the transfer in service, nil when idle;
	// queue[head:] wait behind it. finish is the completion event, bound
	// once in NewLink, so a transfer schedules no closure of its own.
	cur    func()
	queue  []job
	head   int
	finish func()

	// BytesMoved accumulates total payload for utilization reporting.
	BytesMoved float64
}

// job is one queued transfer: its service time and completion callback.
type job struct {
	d    sim.Duration
	done func()
}

// NewLink builds a link on the simulator from a hardware spec.
func NewLink(s *sim.Simulator, name string, spec gpu.LinkSpec, efficiency float64) *Link {
	if efficiency <= 0 || efficiency > 1 {
		panic(fmt.Sprintf("xfer: efficiency %v out of (0,1]", efficiency))
	}
	l := &Link{sim: s, name: name, spec: spec, eff: efficiency}
	l.finish = l.complete
	return l
}

// Spec returns the underlying hardware path.
func (l *Link) Spec() gpu.LinkSpec { return l.spec }

// Name returns the link's trace/debug name.
func (l *Link) Name() string { return l.name }

// NominalRate returns the healthy effective throughput in bytes/second
// (raw bandwidth × protocol efficiency, ignoring any injected
// degradation) — the Profiler's transfer-rate warm start.
func (l *Link) NominalRate() float64 { return l.spec.BytesPerSecond() * l.eff }

// SetDegradation scales the link to frac of nominal bandwidth (fault
// injection: congestion, a failing NIC). frac of 1 restores full speed;
// values outside (0,1] are clamped to healthy. Transfers already in
// flight keep their original durations — only new submissions see the
// changed rate.
func (l *Link) SetDegradation(frac float64) {
	if frac <= 0 || frac >= 1 {
		frac = 1
	}
	l.degrade = frac
}

// Degradation returns the current bandwidth fraction (1 when healthy).
func (l *Link) Degradation() float64 {
	if l.degrade <= 0 || l.degrade > 1 {
		return 1
	}
	return l.degrade
}

// TransferTime returns the service time for a payload of the given size,
// excluding queuing.
func (l *Link) TransferTime(bytes float64) sim.Duration {
	if bytes < 0 {
		panic("xfer: negative transfer size")
	}
	bw := l.spec.BytesPerSecond() * l.eff * l.Degradation()
	return sim.Seconds(bytes/bw) + sim.Microseconds(l.spec.LatencyUS)
}

// Transfer enqueues a copy; done fires when the payload has fully crossed
// the link (after any queued transfers ahead of it). Zero-duration
// transfers still keep FIFO order.
func (l *Link) Transfer(bytes float64, done func()) {
	l.BytesMoved += bytes
	l.push(job{d: l.TransferTime(bytes), done: done})
	if l.cur == nil {
		l.startNext()
	}
}

// push appends a transfer behind the queue. A full queue first reclaims
// the slots its head has passed: in place once they are at least half of
// it, else by moving the backlog into a buffer twice its size. So a link
// that never drains holds at most about twice its peak backlog, and each
// transfer is copied O(1) times on average.
func (l *Link) push(j job) {
	if len(l.queue) == cap(l.queue) {
		live := l.queue[l.head:]
		if 2*l.head >= len(l.queue) {
			n := copy(l.queue, live)
			clear(l.queue[n:])
			l.queue = l.queue[:n]
		} else {
			q := make([]job, len(live), 2*len(live)+1)
			copy(q, live)
			l.queue = q
		}
		l.head = 0
	}
	l.queue = append(l.queue, j)
}

// startNext puts the front transfer in service: one event at its
// completion runs done, then starts the next. A drained queue rewinds to
// its start.
func (l *Link) startNext() {
	if l.head == len(l.queue) {
		l.queue, l.head = l.queue[:0], 0
		l.cur = nil
		return
	}
	j := l.queue[l.head]
	l.queue[l.head] = job{}
	l.head++
	l.cur = j.done
	l.sim.Schedule(j.d, l.finish)
}

// complete is the in-service transfer's completion event.
func (l *Link) complete() {
	l.cur()
	l.startNext()
}

// AccountBytes records payload that crossed the link outside the FIFO
// queue. Engine-synchronous copies (swap stalls, prefix-cache restores)
// block the engine for TransferTime instead of submitting to the queue;
// crediting their bytes here keeps BytesMoved a complete traffic count.
func (l *Link) AccountBytes(bytes float64) {
	if bytes < 0 {
		panic("xfer: negative transfer size")
	}
	l.BytesMoved += bytes
}

// Busy reports whether a transfer is in flight.
func (l *Link) Busy() bool { return l.cur != nil }
