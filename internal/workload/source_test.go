package workload

import (
	"strings"
	"testing"

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

// TestSourceForMatchesGenerateFor does the same for duration-bounded
// streams, including the trailing discarded draw that advances the rng.
func TestSourceForMatchesGenerateFor(t *testing.T) {
	const span = sim.Duration(120)
	g1 := NewGenerator(LongBench(), PoissonArrivals{Rate: 3}, 7)
	want := g1.GenerateFor(span)
	g2 := NewGenerator(LongBench(), PoissonArrivals{Rate: 3}, 7)
	src := g2.SourceFor(span)
	var got []Request
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if len(got) != len(want) {
		t.Fatalf("source yielded %d requests, generate %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d differs: %+v != %+v", i, got[i], want[i])
		}
	}
	// Generator state must match too: the next draw after draining is the
	// same either way.
	if a, b := g1.Next(), g2.Next(); a != b {
		t.Errorf("post-drain generator state diverged: %+v != %+v", a, b)
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

// TestGenerateForPrealloc checks the ExpectedMean-derived capacity hint
// actually lands near the final length (no repeated regrowth, no gross
// overallocation).
func TestGenerateForPrealloc(t *testing.T) {
	g := NewGenerator(ShareGPT(), PoissonArrivals{Rate: 10}, 42)
	out := g.GenerateFor(300) // expect ~3000 requests
	if c := cap(out); c < len(out)/2 || c > 4*len(out) {
		t.Errorf("cap %d far from len %d: hint not effective", c, len(out))
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
