package bench

import (
	"fmt"
	"io"
	"math"
	"strings"

	"windserve/internal/elastic"
	"windserve/internal/fault"
	"windserve/internal/fleet"
	"windserve/internal/model"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// FleetRow is one (policy, chaos) outcome of the fleet-chaos exhibit.
type FleetRow struct {
	Policy       string
	Chaos        bool
	Requests     int
	Completed    int
	Aborted      int
	Rejected     int
	Unfinished   int
	Attainment   float64
	GoodputRPS   float64
	FailedOver   int
	Recovered    int
	WastedTokens int
	// RecoverySec has one entry per replica-crash event: seconds until
	// fleet throughput returned to ≥90% of its pre-crash baseline.
	RecoverySec []float64
	BrownoutSec float64
	// Flips counts elastic role flips (nonzero only under windbench
	// -elastic, which runs these fleets with the default flipping policy).
	Flips int
}

// DefaultChaosPlan builds the exhibit's standard chaos schedule, scaled to
// the run's expected arrival span (n requests at rate req/s) and replica
// count: one replica crash early, a network partition and a client-cancel
// wave mid-run, and a slowdown late. Victim indices spread across the
// fleet so no single replica absorbs every fault.
func DefaultChaosPlan(n, replicas int, rate float64, seed int64) (*fault.Plan, error) {
	span := float64(n) / rate
	at := func(frac float64) int {
		v := int(math.Round(frac * span))
		if v < 1 {
			v = 1
		}
		return v
	}
	spec := fmt.Sprintf(
		"rcrash:r0@%d+%d; rpart:r%d@%d+%d; cancel@%dx0.05; rslow:r%d@%dx8+%d",
		at(0.10), at(0.15),
		(replicas/3)%replicas, at(0.35), at(0.10),
		at(0.45),
		(2*replicas/3)%replicas, at(0.55), at(0.15))
	p, err := fault.Parse(spec)
	if err != nil {
		return nil, err
	}
	p.Seed = seed
	return p, nil
}

// ExpFleetChaos is the fleet-scale resilience exhibit: FleetReplicas
// identical OPT-13B prefill/decode replicas behind the router serve
// FleetRequests ShareGPT arrivals from a pull-based source, once clean and
// once under a seeded chaos plan (replica crash, partition, slowdown,
// client cancels), for each routing policy. The router hedges with timeout
// failover, sheds past its admission limit, and browns out under overload;
// the table reports goodput, SLO attainment, failover/wasted-work
// accounting, and per-crash recovery time. Every printed quantity is
// virtual-time arithmetic, so the same seed yields byte-identical output
// at any pool size. (Extension — not a paper exhibit; excluded from
// `windbench all` because its runtime scales with FleetRequests. A nil
// plan means DefaultChaosPlan; windbench -chaos overrides it.)
func ExpFleetChaos(o Options, w io.Writer, plan *fault.Plan) ([]FleetRow, error) {
	o = o.withDefaults()
	n := o.FleetRequests
	if n <= 0 {
		n = 100_000
	}
	replicas := o.FleetReplicas
	if replicas <= 0 {
		replicas = 16
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
	if o.Elastic {
		// The one-instance-per-role floor pins a 1P/1D replica in place;
		// widen to 2P/2D so the controller has room to flip.
		rcfg.NumPrefill = max(rcfg.NumPrefill, 2)
		rcfg.NumDecode = max(rcfg.NumDecode, 2)
	}
	// 3 req/s/GPU is comfortably under OPT-13B capacity, so the clean runs
	// meet SLO and the chaos runs isolate the faults' damage.
	const perGPURate = 3.0
	rate := perGPURate * float64(rcfg.TotalGPUs()) * float64(replicas)
	ds := workload.ShareGPT()
	if ds.MaxContext > model.OPT13B.MaxContext {
		ds.MaxContext = model.OPT13B.MaxContext
	}

	if plan == nil {
		if plan, err = DefaultChaosPlan(n, replicas, rate, o.Seed); err != nil {
			return nil, err
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := plan.ValidateTargets(0, 0, replicas); err != nil {
		return nil, err
	}

	type job struct {
		policy string
		chaos  bool
	}
	var jobs []job
	for _, pol := range []string{"round-robin", "least-loaded", "weighted"} {
		for _, chaos := range []bool{false, true} {
			jobs = append(jobs, job{pol, chaos})
		}
	}
	thunks := make([]func() (FleetRow, error), len(jobs))
	for i, j := range jobs {
		j := j
		thunks[i] = func() (FleetRow, error) {
			cfg := fleet.Config{
				Replica:         rcfg,
				NumReplicas:     replicas,
				Shards:          o.FleetShards,
				Policy:          j.policy,
				FailoverTimeout: sim.Seconds(10),
				MaxQueueDepth:   32 * replicas,
				TTFTDeadline:    sim.Seconds(60),
				BrownoutDepth:   24,
			}
			if j.chaos {
				cfg.Faults = plan
			}
			if o.Elastic {
				cfg.Elastic = elastic.Default()
			}
			g := workload.NewGenerator(ds, workload.PoissonArrivals{Rate: rate}, o.Seed)
			res, err := fleet.RunFrom(cfg, g.Source(n))
			if err != nil {
				return FleetRow{}, fmt.Errorf("bench: fleet %s chaos=%v: %w", j.policy, j.chaos, err)
			}
			return FleetRow{
				Policy: j.policy, Chaos: j.chaos, Requests: res.Requests,
				Completed: res.Completed, Aborted: res.Aborted, Rejected: res.Rejected,
				Unfinished: res.Unfinished,
				Attainment: res.Summary.Attainment, GoodputRPS: res.Summary.GoodputRPS,
				FailedOver: res.FailedOver, Recovered: res.Recovered,
				WastedTokens: res.WastedTokens,
				RecoverySec:  res.RecoverySec, BrownoutSec: res.BrownoutSec,
				Flips: res.Flips,
			}, nil
		}
	}
	rows, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "Fleet chaos: %d replicas × OPT-13B [%dP,%dD], %d ShareGPT reqs @ %.0f req/s/GPU, plan %q\n",
		replicas, rcfg.NumPrefill, rcfg.NumDecode, n, perGPURate, plan.String())
	tw := table(w)
	fmt.Fprintln(tw, "policy\tchaos\tcompleted\taborted\trejected\tSLO\tgoodput (rps)\tfailovers\trecovered\twasted tok\trecovery s\tbrownout s")
	for _, r := range rows {
		chaos := "off"
		if r.Chaos {
			chaos = "on"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\t%.2f\t%d\t%d\t%d\t%s\t%.0f\n",
			r.Policy, chaos, r.Completed, r.Aborted, r.Rejected,
			pctStr(r.Attainment), r.GoodputRPS, r.FailedOver, r.Recovered,
			r.WastedTokens, recoveryStr(r.RecoverySec), r.BrownoutSec)
	}
	if err := tw.Flush(); err != nil {
		return rows, err
	}
	if o.Elastic {
		var flips int
		for _, r := range rows {
			flips += r.Flips
		}
		fmt.Fprintf(w, "elastic role flipping on (default policy): %d flips across %d runs\n", flips, len(rows))
	}
	return rows, nil
}

// recoveryStr renders per-crash recovery times: "-" when no crash was
// scheduled, "never" when throughput did not return to baseline in-run.
func recoveryStr(secs []float64) string {
	if len(secs) == 0 {
		return "-"
	}
	parts := make([]string, len(secs))
	for i, s := range secs {
		if s < 0 {
			parts[i] = "never"
		} else {
			parts[i] = fmt.Sprintf("%.0f", s)
		}
	}
	return strings.Join(parts, "/")
}
