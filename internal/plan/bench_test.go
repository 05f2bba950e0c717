package plan_test

import (
	"math/rand"
	"testing"

	"repro/internal/pathdict"
	"repro/internal/plan"
)

// Inner-loop benchmarks for executor work (docs/PERF.md, "while working"):
// a few seconds of `go test -run '^$' -bench 'Distinct|EnumerateMatchesInto'
// ./internal/plan/` give the direction of a kernel change before a
// twenty-second workload run confirms it. Direction only — no number from
// here is quoted anywhere.

var benchSink int

// BenchmarkDistinct drives the DISTINCT kernel on the three input orders
// that cost differently: a projected index scan (one column, already
// strictly increasing), a join output projected to a branch point (one
// column, few distinct values in no order), and a wide join output whose
// rows are distinct but out of order.
func BenchmarkDistinct(b *testing.B) {
	const rows = 4 * plan.BlockRows
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name  string
		width int
		value func(i int) int64
	}{
		{"w1-presorted", 1, func(i int) int64 { return int64(2 * i) }},
		{"w1-dupheavy", 1, func(int) int64 { return rng.Int63n(64) }},
		{"w3-distinct-unsorted", 3, func(int) int64 { return rng.Int63() }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			src := make([]int64, rows*tc.width)
			for i := range src {
				src[i] = tc.value(i)
			}
			buf := make([]int64, len(src))
			distinct := plan.NewDistinct()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				benchSink += len(distinct(buf, tc.width))
			}
		})
	}
}

// BenchmarkEnumerateMatchesInto enumerates //a//b//c on a depth-9 schema
// path with eight assignments into a reused buffer, the per-distinct-path
// cost of a non-simple probe.
func BenchmarkEnumerateMatchesInto(b *testing.B) {
	const a, bb, c = pathdict.Sym(1), pathdict.Sym(2), pathdict.Sym(3)
	pat := []pathdict.PStep{{Desc: true, Sym: a}, {Desc: true, Sym: bb}, {Desc: true, Sym: c}}
	path := pathdict.Path{a, 9, a, bb, 9, bb, 9, 9, c}
	var buf []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = pathdict.EnumerateMatchesInto(buf[:0], pat, path)
		benchSink += len(buf)
	}
}
