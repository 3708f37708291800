package bench

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteRowsCSV emits Fig. 10/11 sweep rows as CSV for external plotting:
// one line per (model, dataset, rate, system) with the latency percentiles
// and attainment the paper's figures plot.
func WriteRowsCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	header := []string{
		"model", "dataset", "rate_per_gpu", "system",
		"ttft_p50_ms", "ttft_p90_ms", "ttft_p99_ms",
		"tpot_p50_ms", "tpot_p90_ms", "tpot_p99_ms",
		"slo_attainment", "ttft_attainment", "tpot_attainment",
		"throughput_rps", "goodput_rps", "decode_queue_p99_ms",
		"aborted", "rejected", "recovered", "completed",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return fmt.Sprintf("%.4f", v) }
	for _, r := range rows {
		s := r.Summary
		var aborted, rejected, recovered, completed int
		if r.Result != nil {
			aborted, rejected, recovered = r.Result.Aborted, r.Result.Rejected, r.Result.Recovered
			completed = s.Requests
		}
		rec := []string{
			r.Model, r.Dataset, f(r.Rate), r.System,
			f(s.TTFTP50.Milliseconds()), f(s.TTFTP90.Milliseconds()), f(s.TTFTP99.Milliseconds()),
			f(s.TPOTP50.Milliseconds()), f(s.TPOTP90.Milliseconds()), f(s.TPOTP99.Milliseconds()),
			f(s.Attainment), f(s.TTFTAttainment), f(s.TPOTAttainment),
			f(s.ThroughputRPS), f(s.GoodputRPS), f(s.DecodeQueueP99.Milliseconds()),
			fmt.Sprint(aborted), fmt.Sprint(rejected), fmt.Sprint(recovered),
			fmt.Sprint(completed),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
