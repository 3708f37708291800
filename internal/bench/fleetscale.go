package bench

import (
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"windserve/internal/fleet"
	"windserve/internal/model"
	"windserve/internal/serve"
	"windserve/internal/shard"
	"windserve/internal/workload"
)

// FleetScaleRow is one measurement of the fleet-scale exhibit.
type FleetScaleRow struct {
	Shards int
	// WallSec is host wall-clock time for the run; SimReqPerSec is
	// requests simulated per wall second; Speedup is vs the 1-shard row.
	// These three are the only host-dependent numbers in the exhibit.
	WallSec      float64
	SimReqPerSec float64
	Speedup      float64
	// Windows/Crossings/Solo are the barrier counters: total windows
	// executed, windows that synchronized every shard (full barrier
	// crossings), and windows the coordinator ran alone because all work
	// sat on one shard. Partition-dependent, hence reported out of band —
	// they never enter the Result the digest fingerprints.
	Windows   int64
	Crossings int64
	Solo      int64
	// BusySec and WaitSec split the crossings' wall time, summed over
	// shards: seconds spent running windows, and seconds goroutines spent
	// at the barrier (spinning or parked). Both are 0 at one shard.
	BusySec float64
	WaitSec float64
	// Digest fingerprints the virtual-time Result (%+v, SHA-256 prefix).
	// Identical digests across rows prove the runs are byte-identical.
	Digest     string
	Completed  int
	Unfinished int
}

// ExpFleetScale is the parallel-in-time scaling exhibit: one fleet
// configuration (default 64 OPT-13B replicas serving a million streamed
// ShareGPT requests under least-loaded routing) executed at increasing
// shard counts — shards ∈ {1, 4, 8, NumCPU} — with every run checked to
// produce the same virtual-time Result. Wall seconds and sim req/s are
// host measurements (the one windbench exhibit whose output legitimately
// varies across machines); the digest column is the determinism proof,
// the windows/crossings columns show how often the shards actually
// synchronized, and the busy/wait columns split the crossings' wall time
// into work and barrier wait.
//
// (Extension — not a paper exhibit; excluded from `windbench all`. Size
// with -n and -fleet, pin a single shard count with -shards.)
func ExpFleetScale(o Options, w io.Writer) ([]FleetScaleRow, error) {
	o = o.withDefaults()
	n := o.FleetScaleRequests
	if n <= 0 {
		n = 1_000_000
	}
	replicas := o.FleetScaleReplicas
	if replicas <= 0 {
		replicas = 64
	}

	rcfg, err := o.config(model.OPT13B)
	if err != nil {
		return nil, err
	}
	if rcfg.NumPrefill <= 0 {
		rcfg.NumPrefill = 1
	}
	if rcfg.NumDecode <= 0 {
		rcfg.NumDecode = 1
	}
	// A million in-flight records would defeat the point: the streaming
	// recorder keeps memory bounded regardless of n.
	rcfg.Stream = serve.StreamPolicy{Enabled: true, MaxRecords: o.MaxRecords}
	const perGPURate = 3.0
	rate := perGPURate * float64(rcfg.TotalGPUs()) * float64(replicas)
	ds := workload.ShareGPT()
	if ds.MaxContext > model.OPT13B.MaxContext {
		ds.MaxContext = model.OPT13B.MaxContext
	}

	if o.FleetShards < 0 {
		return nil, fmt.Errorf("bench: fleet-scale: negative shard count %d", o.FleetShards)
	}
	sweep := []int{1, 4, 8, runtime.NumCPU()}
	if o.FleetShards > 0 {
		sweep = []int{1, o.FleetShards}
	}
	for i, s := range sweep {
		if s > replicas {
			sweep[i] = replicas // fleet clamps shards to replicas; pre-dedup
		}
	}
	slices.Sort(sweep)
	sweep = slices.Compact(sweep)

	// Runs execute serially — each one owns the whole machine, since
	// wall-clock speedup is the measurement.
	rows := make([]FleetScaleRow, 0, len(sweep))
	var base float64
	for _, shards := range sweep {
		var st shard.Stats
		cfg := fleet.Config{
			Replica:     rcfg,
			NumReplicas: replicas,
			Policy:      "least-loaded",
			Shards:      shards,
			ShardStats:  &st,
		}
		g := workload.NewGenerator(ds, workload.PoissonArrivals{Rate: rate}, o.Seed)
		start := time.Now()
		res, err := fleet.RunFrom(cfg, g.Source(n))
		wall := time.Since(start).Seconds()
		if err != nil {
			return nil, fmt.Errorf("bench: fleet-scale %d shards: %w", shards, err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
		if shards == 1 {
			base = wall
		}
		var busy, wait time.Duration
		for i := range st.Busy {
			busy += st.Busy[i]
			wait += st.Wait[i]
		}
		rows = append(rows, FleetScaleRow{
			Shards:       shards,
			WallSec:      wall,
			SimReqPerSec: float64(res.Requests) / wall,
			Speedup:      base / wall,
			Windows:      st.Windows,
			Crossings:    st.Crossings,
			Solo:         st.SoloWindows,
			BusySec:      busy.Seconds(),
			WaitSec:      wait.Seconds(),
			Digest:       fmt.Sprintf("%x", sum[:6]),
			Completed:    res.Completed,
			Unfinished:   res.Unfinished,
		})
	}

	fmt.Fprintf(w, "Fleet scale: %d replicas × OPT-13B [%dP,%dD], %d ShareGPT reqs streamed, least-loaded routing; host: %d CPUs, GOMAXPROCS=%d\n",
		replicas, rcfg.NumPrefill, rcfg.NumDecode, n,
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	tw := table(w)
	fmt.Fprintln(tw, "shards\twall s\tsim req/s\tspeedup\twindows\tcrossings\tbusy s\twait s\tresult digest\tcompleted\tunfinished")
	identical := true
	for _, r := range rows {
		if r.Digest != rows[0].Digest {
			identical = false
		}
		fmt.Fprintf(tw, "%d\t%.1f\t%.0f\t%.2fx\t%d\t%d\t%.2f\t%.2f\t%s\t%d\t%d\n",
			r.Shards, r.WallSec, r.SimReqPerSec, r.Speedup, r.Windows, r.Crossings, r.BusySec, r.WaitSec, r.Digest, r.Completed, r.Unfinished)
	}
	if err := tw.Flush(); err != nil {
		return rows, err
	}
	if identical {
		fmt.Fprintln(w, "all shard counts produced byte-identical virtual-time results")
	} else {
		fmt.Fprintln(w, "WARNING: result digests differ across shard counts — determinism violated")
	}
	return rows, nil
}
