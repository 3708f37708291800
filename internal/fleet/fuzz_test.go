package fleet

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"windserve/internal/model"
	"windserve/internal/serve"
	"windserve/internal/sim"
	"windserve/internal/workload"
)

// arrivalRecord is the fuzz encoding of one request: an ID byte (a small
// ID space, so duplicates occur), prompt tokens as a signed byte × 16,
// output tokens as a signed byte, then the arrival time's IEEE-754 bits
// (so NaN, ±Inf, negative and huge times all occur).
const arrivalRecord = 11

func decodeArrivals(data []byte) []workload.Request {
	var reqs []workload.Request
	for len(data) >= arrivalRecord && len(reqs) < 8 {
		reqs = append(reqs, workload.Request{
			ID:           uint64(data[0]),
			PromptTokens: int(int8(data[1])) * 16,
			OutputTokens: int(int8(data[2])),
			Arrival:      sim.Time(math.Float64frombits(binary.LittleEndian.Uint64(data[3:]))),
		})
		data = data[arrivalRecord:]
	}
	return reqs
}

func encodeArrivals(reqs []workload.Request) []byte {
	var out []byte
	for _, r := range reqs {
		out = append(out, byte(r.ID), byte(int8(r.PromptTokens/16)), byte(int8(r.OutputTokens)))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(float64(r.Arrival)))
	}
	return out
}

// FuzzArrivals drives arbitrary request streams through the front door of
// a single testbed and of a two-replica fleet. Each run must either
// return an error naming one of the requests, or account for every
// request: completed + aborted + rejected + unfinished = requests.
func FuzzArrivals(f *testing.F) {
	traces := badArrivalTraces()
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(encodeArrivals(traces[name]))
	}
	f.Add(encodeArrivals([]workload.Request{ // a valid stream
		{ID: 1, Arrival: 0, PromptTokens: 512, OutputTokens: 32},
		{ID: 2, Arrival: 0.5, PromptTokens: 64, OutputTokens: 100},
		{ID: 3, Arrival: 0.5, PromptTokens: 1024, OutputTokens: 8},
	}))
	rcfg, err := serve.DefaultConfig(model.OPT13B)
	if err != nil {
		f.Fatal(err)
	}
	rcfg.Horizon = sim.Seconds(600)
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs := decodeArrivals(data)
		named := func(sys string, err error) {
			for _, r := range reqs {
				if strings.Contains(err.Error(), fmt.Sprintf("request %d ", r.ID)) {
					return
				}
			}
			t.Fatalf("%s: error names no request: %v", sys, err)
		}
		partition := func(sys string, completed, aborted, rejected, unfinished, requests int) {
			if completed+aborted+rejected+unfinished != requests {
				t.Fatalf("%s: %d completed + %d aborted + %d rejected + %d unfinished != %d requests",
					sys, completed, aborted, rejected, unfinished, requests)
			}
		}
		res, err := serve.RunDistServeFrom(rcfg, workload.NewSliceSource(reqs))
		if err != nil {
			named("DistServe", err)
		} else {
			partition("DistServe", len(res.Records), res.Aborted, res.Rejected, res.Unfinished, res.Requests)
		}
		cfg := testConfig(t, 2)
		fres, err := RunFrom(cfg, workload.NewSliceSource(reqs))
		if err != nil {
			named("fleet", err)
		} else {
			partition("fleet", fres.Completed, fres.Aborted, fres.Rejected, fres.Unfinished, fres.Requests)
		}
	})
}
