// Benchmarks regenerating the paper's tables and figures, one Benchmark
// per exhibit. Each iteration performs the full experiment (all system
// runs for that figure), so ns/op reports the cost of reproducing the
// exhibit; run with -benchtime=1x for a single regeneration:
//
//	go test -bench . -benchtime=1x
//
// The printable rows (what the paper's plots show) are produced by the
// same functions via `go run ./cmd/windbench <exhibit>`, which is also
// what EXPERIMENTS.md records.
package windserve_test

import (
	"io"
	"testing"

	"windserve/internal/bench"
)

// benchOpts keeps the per-iteration cost moderate while preserving the
// statistical shapes the assertions in internal/bench verify.
func benchOpts() bench.Options { return bench.Options{Requests: 300, Seed: 42} }

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.ExpTable1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpTable2(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpTable3(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.ExpTable4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpFig1(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpFig2(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpFig3(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpFig5(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.ExpFig7(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpFig8(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfiler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpProfiler(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.ExpFig9(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpFig10(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpFig11(benchOpts(), io.Discard, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpFig12(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpFig13(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension experiments (beyond the paper's own exhibits).

func BenchmarkExtHetero(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpHetero(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtDesignAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpDesignAblations(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtVictimPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpVictimPolicy(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtBurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpBurst(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtChunkSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpChunkSize(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpScale(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtMixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpMixed(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExpShift(benchOpts(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
