package serve

import (
	"fmt"
	"testing"

	"windserve/internal/sim"
	"windserve/internal/workload"
)

// elasticPD builds a 2-prefill/2-decode cluster wired for role flips and
// returns the runner to drive it.
func elasticPD(t *testing.T) (*runner, *pd) {
	t.Helper()
	cfg := cfg13B(t)
	cfg.NumPrefill = 2
	cfg.NumDecode = 2
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newPD(r, r.cfg, pdHooks{elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	r.queueDepth = d.queueDepth
	r.onAbort = d.abort
	return r, d
}

// burst builds n requests with the given shape arriving dt apart.
func burst(n, prompt, output int, dt sim.Duration) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID: uint64(i + 1), Arrival: sim.Time(0).Add(sim.Duration(i) * dt),
			PromptTokens: prompt, OutputTokens: output,
		}
	}
	return reqs
}

// TestFlipToDecodeRequeuesQueuedPrefills floods the prefill queues, flips
// an acting prefill to decode mid-backlog, and requires the drained
// queue to re-route — and every request to still finish exactly once.
func TestFlipToDecodeRequeuesQueuedPrefills(t *testing.T) {
	r, d := elasticPD(t)
	var fr FlipResult
	r.s.At(sim.Time(0).Add(sim.Seconds(0.3)), func() { fr = d.flip(true) })
	r.scheduleStream(workload.NewSliceSource(burst(80, 1500, 8, sim.Seconds(0.002))), d.prefillRR)
	res, err := r.run("elastic-test")
	if err != nil {
		t.Fatal(err)
	}
	if !fr.OK || !fr.ToDecode {
		t.Fatalf("flip did not execute: %+v", fr)
	}
	if fr.Requeued == 0 {
		t.Fatalf("flip under a deep prefill backlog requeued nothing: %+v", fr)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished after flip", res.Unfinished)
	}
	if res.Summary.Requests != 80 {
		t.Fatalf("summarized %d of 80", res.Summary.Requests)
	}
	if res.LiveKVBlocks != 0 {
		t.Fatalf("KV leak after flip: %d blocks", res.LiveKVBlocks)
	}
}

// TestFlipToPrefillMigratesRunningStreams flips an acting decode away
// while its batch is mid-generation: the streams must migrate to the
// remaining decode and every request must still finish exactly once,
// with no KV left on either side.
func TestFlipToPrefillMigratesRunningStreams(t *testing.T) {
	r, d := elasticPD(t)
	var fr FlipResult
	r.s.At(sim.Time(0).Add(sim.Seconds(1.5)), func() { fr = d.flip(false) })
	r.scheduleStream(workload.NewSliceSource(burst(40, 200, 300, sim.Seconds(0.01))), d.prefillRR)
	res, err := r.run("elastic-test")
	if err != nil {
		t.Fatal(err)
	}
	if !fr.OK || fr.ToDecode {
		t.Fatalf("flip did not execute: %+v", fr)
	}
	if fr.Migrating == 0 {
		t.Fatalf("flip mid-decode migrated nothing: %+v", fr)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished after migration", res.Unfinished)
	}
	if res.Summary.Requests != 40 {
		t.Fatalf("summarized %d of 40", res.Summary.Requests)
	}
	if res.LiveKVBlocks != 0 {
		t.Fatalf("KV leak after migration: %d blocks", res.LiveKVBlocks)
	}
}

// TestFlipRoundTrip bends the cluster both ways and back under load: to
// 1P/3D, back to 2P/2D, then to 3P/1D. Selection must unflip first
// (restoring the static layout before flipping a home instance), and the
// run must drain completely.
func TestFlipRoundTrip(t *testing.T) {
	r, d := elasticPD(t)
	var results []FlipResult
	flipAt := func(at float64, toDecode bool) {
		r.s.At(sim.Time(0).Add(sim.Seconds(at)), func() { results = append(results, d.flip(toDecode)) })
	}
	flipAt(0.5, true)  // 1P/3D: p-side home flips to decode
	flipAt(1.5, false) // back to 2P/2D: must unflip that same instance
	flipAt(2.5, false) // 3P/1D: a home decode flips to prefill
	r.scheduleStream(workload.NewSliceSource(burst(60, 800, 100, sim.Seconds(0.01))), d.prefillRR)
	res, err := r.run("elastic-test")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("expected 3 flips, got %d", len(results))
	}
	for i, fr := range results {
		if !fr.OK {
			t.Fatalf("flip %d failed: %+v", i, fr)
		}
	}
	if results[0].Instance != results[1].Instance {
		t.Fatalf("unflip-first violated: flip-to-decode took %s but flip-to-prefill took %s",
			results[0].Instance, results[1].Instance)
	}
	for i := range d.prefills {
		if d.flipped[i] {
			t.Fatalf("prefill %d still flipped after round trip", i)
		}
	}
	if !d.flipped[2] && !d.flipped[3] {
		t.Fatal("no home decode acting as prefill after the final flip")
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished after round trip", res.Unfinished)
	}
	if res.LiveKVBlocks != 0 {
		t.Fatalf("KV leak after round trip: %d blocks", res.LiveKVBlocks)
	}
}

// TestFlipFloorNeverEmptiesRole drains a role to one acting instance and
// requires further shrinking flips to refuse.
func TestFlipFloorNeverEmptiesRole(t *testing.T) {
	r, d := elasticPD(t)
	var frs [3]FlipResult
	r.s.At(sim.Time(0).Add(sim.Seconds(0.1)), func() {
		frs[0] = d.flip(true) // 1P/3D
		frs[1] = d.flip(true) // would empty prefill: must refuse
		frs[2] = d.flip(true)
	})
	r.scheduleStream(workload.NewSliceSource(burst(10, 400, 20, sim.Seconds(0.01))), d.prefillRR)
	res, err := r.run("elastic-test")
	if err != nil {
		t.Fatal(err)
	}
	if !frs[0].OK {
		t.Fatalf("first flip refused: %+v", frs[0])
	}
	if frs[1].OK || frs[2].OK {
		t.Fatalf("flip emptied the prefill role: %+v %+v", frs[1], frs[2])
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished", res.Unfinished)
	}
}

// TestStaticPDRefusesFlip pins the gate: with elastic wiring off, flip is a
// structured no-op and the flipped-role bits stay nil.
func TestStaticPDRefusesFlip(t *testing.T) {
	cfg := cfg13B(t)
	cfg.NumPrefill = 2
	cfg.NumDecode = 2
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newPD(r, r.cfg, pdHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if fr := d.flip(true); fr.OK {
		t.Fatalf("static pd accepted a flip: %+v", fr)
	}
	if d.flipped != nil {
		t.Fatal("static pd built elastic state")
	}
}

// TestPDLayout pins the one-list, one-matrix layout: static wiring has
// exactly the 2·P·D cross-role links, elastic wiring every off-diagonal
// pair; each link is named for its physical endpoints under the replica
// prefix; and the prefill-to-decode lookup returns nil exactly when both
// indices name the same instance.
func TestPDLayout(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {1, 3}} {
		for _, elastic := range []bool{false, true} {
			np, nd := shape[0], shape[1]
			cfg := cfg13B(t)
			cfg.NumPrefill, cfg.NumDecode = np, nd
			r, err := newRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d, err := newPD(r, r.cfg, pdHooks{prefix: "r3/", elastic: elastic})
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%dP/%dD elastic=%v", np, nd, elastic)
			home := func(k int) string {
				if k < np {
					return fmt.Sprintf("p%d", k)
				}
				return fmt.Sprintf("d%d", k-np)
			}
			n := 0
			for a, row := range d.link {
				for b, lk := range row {
					if lk == nil {
						continue
					}
					n++
					if want := "r3/" + home(a) + "-" + home(b); lk.Name() != want {
						t.Errorf("%s: link[%d][%d] named %q, want %q", tag, a, b, lk.Name(), want)
					}
				}
			}
			want := 2 * np * nd
			if elastic {
				want = (np + nd) * (np + nd - 1)
			}
			if n != want {
				t.Errorf("%s: %d links, want %d", tag, n, want)
			}
			for i := 0; i < d.pSpace(); i++ {
				for j := 0; j < d.dSpace(); j++ {
					if same := d.pIns(i) == d.dIns(j); (d.pdLink(i, j) == nil) != same {
						t.Errorf("%s: pdLink(%d,%d) nil=%v, same instance=%v", tag, i, j, d.pdLink(i, j) == nil, same)
					}
				}
			}
		}
	}
}
