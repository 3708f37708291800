package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"windserve/internal/sim"
)

// TestSourceMatchesGenerate pins the tentpole's bit-identical contract:
// pulling requests lazily from a Source yields the exact sequence
// Generate materializes for the same seed.
func TestSourceMatchesGenerate(t *testing.T) {
	const n = 2000
	want := NewGenerator(ShareGPT(), PoissonArrivals{Rate: 8}, 42).Generate(n)
	src := NewGenerator(ShareGPT(), PoissonArrivals{Rate: 8}, 42).Source(n)
	for i := 0; i < n; i++ {
		r, ok := src.Next()
		if !ok {
			t.Fatalf("source ended early at %d", i)
		}
		if r != want[i] {
			t.Fatalf("request %d: source %+v != generate %+v", i, r, want[i])
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("source yielded more than n requests")
	}
}

// TestNonPositiveCountIsEmpty: a zero or negative request count yields an
// empty trace from both Generate and Source, never a panic.
func TestNonPositiveCountIsEmpty(t *testing.T) {
	for _, n := range []int{0, -1, -5} {
		g := NewGenerator(ShareGPT(), PoissonArrivals{Rate: 4}, 1)
		if reqs := g.Generate(n); len(reqs) != 0 {
			t.Errorf("Generate(%d) = %d requests, want 0", n, len(reqs))
		}
		if r, ok := g.Source(n).Next(); ok {
			t.Errorf("Source(%d) yielded %+v, want nothing", n, r)
		}
	}
}

func TestSliceSource(t *testing.T) {
	reqs := NewGenerator(ShareGPT(), UniformArrivals{Rate: 2}, 1).Generate(5)
	src := NewSliceSource(reqs)
	for i := 0; i < 5; i++ {
		r, ok := src.Next()
		if !ok || r != reqs[i] {
			t.Fatalf("slice source at %d: got %+v ok=%v", i, r, ok)
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("slice source did not end")
	}
	if _, ok := NewSliceSource(nil).Next(); ok {
		t.Fatal("empty slice source yielded a request")
	}
}

func TestLoadTraceTruncated(t *testing.T) {
	full := `[{"id":1,"arrival":0.5,"prompt_tokens":10,"output_tokens":2},
{"id":2,"arrival":1.5,"prompt_tokens":20,"output_tokens":3}]`
	// Cut mid-record: decoding must fail, not silently return a prefix.
	for _, cut := range []int{len(full) / 3, len(full) - 1} {
		if _, err := LoadTrace(strings.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated trace at %d bytes loaded without error", cut)
		}
	}
	if _, err := LoadTrace(strings.NewReader("")); err == nil {
		t.Error("empty input loaded without error")
	}
}

func TestLoadTraceNonNumericField(t *testing.T) {
	bad := `[{"id":1,"arrival":"soon","prompt_tokens":10,"output_tokens":2}]`
	if _, err := LoadTrace(strings.NewReader(bad)); err == nil {
		t.Error("non-numeric arrival loaded without error")
	}
	bad = `[{"id":1,"arrival":0.5,"prompt_tokens":"many","output_tokens":2}]`
	if _, err := LoadTrace(strings.NewReader(bad)); err == nil {
		t.Error("non-numeric prompt_tokens loaded without error")
	}
}

func TestLoadTraceNotArray(t *testing.T) {
	if _, err := LoadTrace(strings.NewReader(`{"id":1}`)); err == nil {
		t.Error("non-array trace loaded without error")
	}
}

// TestTraceReaderStreams round-trips a saved trace through the streaming
// reader and checks unsorted input fails at the offending index.
func TestTraceReaderStreams(t *testing.T) {
	reqs := NewGenerator(ShareGPT(), PoissonArrivals{Rate: 5}, 9).Generate(50)
	var buf strings.Builder
	if err := SaveTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	tr := NewTraceReader(strings.NewReader(buf.String()))
	i := 0
	for {
		r, ok := tr.Next()
		if !ok {
			break
		}
		if r != reqs[i] {
			t.Fatalf("streamed request %d differs", i)
		}
		i++
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(reqs) {
		t.Fatalf("streamed %d requests, want %d", i, len(reqs))
	}

	unsorted := `[{"id":1,"arrival":5},{"id":2,"arrival":1}]`
	tr = NewTraceReader(strings.NewReader(unsorted))
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
	}
	if tr.Err() == nil {
		t.Error("unsorted trace streamed without error")
	}
}

// FuzzTraceReader streams arbitrary bytes as a JSON trace: no input may
// panic, a failed stream must report an error with a message, and every
// request it yields must arrive no earlier than its predecessor. The seeds
// are the well-formed, truncated, mistyped and unsorted traces above, plus
// a negative token count and a reused ID, which the reader passes through
// and the serving runners reject.
func FuzzTraceReader(f *testing.F) {
	full := `[{"id":1,"arrival":0.5,"prompt_tokens":10,"output_tokens":2},
{"id":2,"arrival":1.5,"prompt_tokens":20,"output_tokens":3}]`
	for _, seed := range []string{
		full,
		full[:len(full)/3],
		full[:len(full)-1],
		"",
		`[{"id":1,"arrival":"soon","prompt_tokens":10,"output_tokens":2}]`,
		`[{"id":1,"arrival":0.5,"prompt_tokens":"many","output_tokens":2}]`,
		`{"id":1}`,
		`[{"id":1,"arrival":5},{"id":2,"arrival":1}]`,
		`[{"id":1,"arrival":0,"prompt_tokens":-100,"output_tokens":10}]`,
		`[{"id":7,"arrival":0,"prompt_tokens":10,"output_tokens":2},{"id":7,"arrival":0,"prompt_tokens":10,"output_tokens":2}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTraceReader(strings.NewReader(string(data)))
		var last sim.Time
		for i := 0; ; i++ {
			r, ok := tr.Next()
			if !ok {
				break
			}
			if i > 0 && r.Arrival < last {
				t.Fatalf("request %d arrives at %v, before %v", i, r.Arrival, last)
			}
			last = r.Arrival
		}
		if err := tr.Err(); err != nil && err.Error() == "" {
			t.Fatal("trace error with an empty message")
		}
	})
}

// FuzzScenarioSource builds every scenario's source at any size, rate and
// seed. Next must return for every rate: a negative one once ran the
// session clock backwards, so chat and agentic started sessions forever.
// The source yields exactly n requests numbered 1..n, and for a positive
// finite rate their arrivals never decrease. An unknown scenario name is
// an error that names it.
func FuzzScenarioSource(f *testing.F) {
	for _, name := range ScenarioNames() {
		f.Add(name, 64, 4.0, int64(1))
	}
	f.Add("chat", 5, -1.0, int64(1))
	f.Add("agentic", 5, -1.0, int64(1))
	f.Add("nosuch", 5, 1.0, int64(1))
	f.Fuzz(func(t *testing.T, name string, n int, rate float64, seed int64) {
		sc, err := ScenarioByName(name)
		if err != nil {
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
				t.Fatalf("unknown scenario error %q does not name %q", err, name)
			}
			return
		}
		n = int(uint(n) % 256)
		got := make(chan []Request, 1)
		go func() {
			src := sc.Source(n, rate, seed)
			var reqs []Request
			for r, ok := src.Next(); ok; r, ok = src.Next() {
				reqs = append(reqs, r)
			}
			got <- reqs
		}()
		var reqs []Request
		select {
		case reqs = <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s.Source(%d, %v, %d): Next did not return", name, n, rate, seed)
		}
		if len(reqs) != n {
			t.Fatalf("%s.Source(%d, %v, %d) yielded %d requests", name, n, rate, seed, len(reqs))
		}
		for i, r := range reqs {
			if r.ID != uint64(i+1) {
				t.Fatalf("%s: request %d has ID %d", name, i, r.ID)
			}
			if rate > 0 && !math.IsInf(rate, 1) && i > 0 && r.Arrival < reqs[i-1].Arrival {
				t.Fatalf("%s at rate %v: request %d arrives at %v, before %v", name, rate, r.ID, r.Arrival, reqs[i-1].Arrival)
			}
		}
	})
}
