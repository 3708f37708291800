package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// verdict compares one end-to-end metric between a baseline set a and a
// candidate set b:
//
//   - identical: an exact (virtual-time) metric reads the same at the
//     same seed;
//   - unresolved: either side's quartile spread, as a share of its
//     median, exceeds the metric's bound, so the sets cannot tell a
//     regression from noise;
//   - better / worse: b's median moved by more than the bound;
//   - within-bound: otherwise.
//
// At the same seed an exact metric has no noise, so any change is
// better or worse.
func verdict(m endToEndMetric, a, b stat, sameSeed bool) string {
	if m.exact && sameSeed {
		switch {
		case a.Median == b.Median:
			return "identical"
		case (b.Median > a.Median) == m.higher:
			return "better"
		default:
			return "worse"
		}
	}
	if spread(a) > m.bound || spread(b) > m.bound {
		return "unresolved"
	}
	change := relChange(a.Median, b.Median)
	if m.higher {
		change = -change
	}
	switch {
	case change > m.bound:
		return "worse"
	case change < -m.bound:
		return "better"
	default:
		return "within-bound"
	}
}

// spread is the quartile distance of s as a share of its median.
func spread(s stat) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// relChange is (b - a) / |a|, 0 when both are 0.
func relChange(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

func readResult(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareMain prints, for every workload in both results and every
// end-to-end metric, both medians with their quartiles and a verdict.
// It exits 1 when any pair is worse or unresolved, or when the digests
// of a workload run at the same seed differ.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	bad := false
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	for _, wa := range a.Workloads {
		var wb *workloadSet
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		sameSeed := wa.Seed == wb.Seed
		for _, m := range endToEnd {
			sa, okA := wa.Metrics[m.name]
			sb, okB := wb.Metrics[m.name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, sa, sb, sameSeed)
			if v == "worse" || v == "unresolved" {
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%.0f%%\t%s\n",
				wa.Name, m.name, m.unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
				100*relChange(sa.Median, sb.Median), 100*m.bound, v)
		}
		if sameSeed && (wa.InputDigest != wb.InputDigest || wa.ResultDigest != wb.ResultDigest) {
			bad = true
			fmt.Fprintf(tw, "%s\tdigests\t\tinput %s result %s\tinput %s result %s\t\t\tdiffer\n",
				wa.Name, wa.InputDigest, wa.ResultDigest, wb.InputDigest, wb.ResultDigest)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if bad {
		return 1
	}
	return 0
}
