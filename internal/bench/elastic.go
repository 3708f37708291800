package bench

import (
	"crypto/sha256"
	"fmt"
	"io"

	"windserve/internal/elastic"
	"windserve/internal/fleet"
	"windserve/internal/model"
	"windserve/internal/workload"
)

// ElasticRow is one fleet configuration's outcome on the mix-shift
// workload.
type ElasticRow struct {
	// Config labels the per-replica split ("2P/2D", "3P/1D", ...) and
	// Elastic marks the row whose split moves at runtime.
	Config  string
	Elastic bool

	Requests   int
	Completed  int
	Unfinished int
	// GoodputRPS (SLO-attaining completions per second) is the exhibit's
	// headline: the quantity a wrong static split burns and role flipping
	// recovers.
	GoodputRPS float64
	Attainment float64
	TTFTP99Ms  float64
	TPOTP99Ms  float64
	Flips      int
	Migrated   int
	Requeued   int
	// Digest fingerprints the full Result (%+v, SHA-256 prefix) — the
	// byte-identity handle the CI elastic smoke compares across runs and
	// shard counts.
	Digest string
}

// ExpElastic is the elastic role-flipping exhibit: a 4-replica OPT-13B
// fleet serving the mixshift scenario — square-wave swings between
// prompt-heavy and decode-heavy traffic with a flash crowd — under four
// per-replica splits: the balanced static 2P/2D, the two statically
// "tuned" extremes (3P/1D and 1P/3D, each right for one phase and wrong
// for the other), and an elastic 2P/2D whose RoleController flips
// instances between roles as the mix moves. The comparison is
// goodput-at-SLO: any static split is mismatched half the time, so the
// elastic fleet is expected to beat all three. (Extension — not a paper
// exhibit; excluded from `windbench all`. Size with -n.)
func ExpElastic(o Options, w io.Writer) ([]ElasticRow, error) {
	o = o.withDefaults()
	n := o.ElasticRequests
	if n <= 0 {
		n = 20_000
	}
	const replicas = 4

	rcfg, err := o.config(model.OPT13B)
	if err != nil {
		return nil, err
	}
	sc, err := workload.ScenarioByName("mixshift")
	if err != nil {
		return nil, err
	}
	// Every split below deploys 4 TP-2 instances per replica (8 GPUs).
	// ~1 req/s/GPU puts each phase right at the capacity of the matching
	// split: prompt-heavy phases saturate a balanced split's prefill side
	// and decode-heavy phases its decode side, while a right-sized split
	// still serves them — the regime where moving instances (rather than
	// shedding load) pays.
	const gpusPerReplica = 8
	rate := 1.0 * gpusPerReplica * float64(replicas)

	type split struct {
		label   string
		np, nd  int
		elastic bool
	}
	splits := []split{
		{"2P/2D static", 2, 2, false},
		{"3P/1D static", 3, 1, false},
		{"1P/3D static", 1, 3, false},
		{"2P/2D elastic", 2, 2, true},
	}
	thunks := make([]func() (ElasticRow, error), len(splits))
	for i, sp := range splits {
		sp := sp
		thunks[i] = func() (ElasticRow, error) {
			cfg := fleet.Config{
				Replica:     rcfg,
				NumReplicas: replicas,
				Policy:      "least-loaded",
			}
			cfg.Replica.NumPrefill = sp.np
			cfg.Replica.NumDecode = sp.nd
			if sp.elastic {
				cfg.Elastic = elastic.Default()
			}
			res, err := fleet.RunFrom(cfg, sc.Source(n, rate, o.Seed))
			if err != nil {
				return ElasticRow{}, fmt.Errorf("bench: elastic %s: %w", sp.label, err)
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
			return ElasticRow{
				Config: sp.label, Elastic: sp.elastic,
				Requests: res.Requests, Completed: res.Completed, Unfinished: res.Unfinished,
				GoodputRPS: res.Summary.GoodputRPS, Attainment: res.Summary.Attainment,
				TTFTP99Ms: res.Summary.TTFTP99.Milliseconds(),
				TPOTP99Ms: res.Summary.TPOTP99.Milliseconds(),
				Flips:     res.Flips, Migrated: res.FlipMigrated, Requeued: res.FlipRequeued,
				Digest: fmt.Sprintf("%x", sum[:6]),
			}, nil
		}
	}
	rows, err := fanOut(o, thunks)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "Elastic role flipping: %d replicas × OPT-13B on mixshift, %d reqs @ %.0f req/s, seed %d\n",
		replicas, n, rate, o.Seed)
	tw := table(w)
	fmt.Fprintln(tw, "config\tcompleted\tgoodput (rps)\tSLO\tTTFT p99 (ms)\tTPOT p99 (ms)\tflips\tmigrated\trequeued\tresult digest")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%s\t%.1f\t%.1f\t%d\t%d\t%d\t%s\n",
			r.Config, r.Completed, r.GoodputRPS, pctStr(r.Attainment),
			r.TTFTP99Ms, r.TPOTP99Ms, r.Flips, r.Migrated, r.Requeued, r.Digest)
	}
	if err := tw.Flush(); err != nil {
		return rows, err
	}
	var el ElasticRow
	bestStatic := ElasticRow{GoodputRPS: -1}
	for _, r := range rows {
		if r.Elastic {
			el = r
		} else if r.GoodputRPS > bestStatic.GoodputRPS {
			bestStatic = r
		}
	}
	if el.GoodputRPS > bestStatic.GoodputRPS {
		fmt.Fprintf(w, "elastic beats best static split on goodput-at-SLO: %.2f vs %.2f rps (%s, %d flips)\n",
			el.GoodputRPS, bestStatic.GoodputRPS, bestStatic.Config, el.Flips)
	} else {
		fmt.Fprintf(w, "WARNING: elastic did not beat the best static split: %.2f vs %.2f rps (%s)\n",
			el.GoodputRPS, bestStatic.GoodputRPS, bestStatic.Config)
	}
	return rows, nil
}
