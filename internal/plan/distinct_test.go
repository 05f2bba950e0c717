package plan_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/plan"
)

// maxDistinctWidth is the widest block the kernel tests drive; the widest
// intermediate relation of the repository's workloads has four columns.
const maxDistinctWidth = 5

// referenceDistinct is the obviously-correct DISTINCT the kernel is held
// to: collect the rows in a map, sort what is left with sort.Slice.
func referenceDistinct(data []int64, width int) []int64 {
	seen := map[[maxDistinctWidth]int64]bool{}
	var rows [][maxDistinctWidth]int64
	for i := 0; i < len(data); i += width {
		var row [maxDistinctWidth]int64
		copy(row[:], data[i:i+width])
		if !seen[row] {
			seen[row] = true
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return slices.Compare(rows[i][:width], rows[j][:width]) < 0 })
	out := make([]int64, 0, len(rows)*width)
	for _, row := range rows {
		out = append(out, row[:width]...)
	}
	return out
}

// checkDistinct runs the kernel on a copy of data and compares it with the
// reference: the same rows in the same order, returned in the input's own
// storage.
func checkDistinct(t *testing.T, data []int64, width int) {
	t.Helper()
	want := referenceDistinct(data, width)
	in := slices.Clone(data)
	got := plan.NewDistinct()(in, width)
	if !slices.Equal(got, want) {
		t.Fatalf("width %d, %d rows: distinct differs from the reference\n got %v\nwant %v\n  in %v",
			width, len(data)/width, clip(got), clip(want), clip(data))
	}
	if len(got) > 0 && &got[0] != &in[0] {
		t.Fatalf("width %d, %d rows: distinct moved the block instead of compacting it in place", width, len(data)/width)
	}
}

func clip(v []int64) []int64 {
	if len(v) > 60 {
		return v[:60]
	}
	return v
}

// distinctShapes are the input orders the kernel branches on. Each builds
// n rows of the given width; the first column carries the order and the
// others derive from it, so rows compare the way their first column does
// except where a shape says otherwise.
var distinctShapes = []struct {
	name string
	n    int
	row  func(rng *rand.Rand, i, n int) int64 // first-column value of row i
	tail func(rng *rand.Rand) int64           // other columns; nil derives them from the first
}{
	{name: "empty", n: 0},
	{name: "one-row", n: 1, row: func(_ *rand.Rand, i, _ int) int64 { return 7 }},
	{name: "strictly-increasing", n: 500, row: func(_ *rand.Rand, i, _ int) int64 { return int64(3 * i) }},
	{name: "increasing-adjacent-duplicates", n: 500, row: func(_ *rand.Rand, i, _ int) int64 { return int64(i / 3) }},
	{name: "reversed", n: 500, row: func(_ *rand.Rand, i, n int) int64 { return int64(n - i) }},
	{name: "all-equal", n: 500, row: func(*rand.Rand, int, int) int64 { return 42 }},
	{name: "duplicate-heavy-random", n: 2000, row: func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(16) }},
	{name: "distinct-random", n: 2000, row: func(rng *rand.Rand, _, _ int) int64 { return rng.Int63() }},
	// Equal first columns, order decided by the last one: the comparison
	// has to look past a shared prefix.
	{name: "shared-prefix", n: 500, row: func(*rand.Rand, int, int) int64 { return 1 },
		tail: func(rng *rand.Rand) int64 { return rng.Int63n(50) }},
	{name: "negative-ids", n: 500, row: func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(200) - 100 }},
	{name: "over-a-block-sorted", n: 2*plan.BlockRows + 17, row: func(_ *rand.Rand, i, _ int) int64 { return int64(i) }},
	{name: "over-a-block-random", n: 2*plan.BlockRows + 17, row: func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(700) }},
}

func buildShape(rng *rand.Rand, si, width int) []int64 {
	sh := distinctShapes[si]
	data := make([]int64, 0, sh.n*width)
	for i := 0; i < sh.n; i++ {
		v := sh.row(rng, i, sh.n)
		data = append(data, v)
		for c := 1; c < width; c++ {
			if sh.tail != nil {
				data = append(data, sh.tail(rng))
			} else {
				data = append(data, v*int64(c+1))
			}
		}
	}
	return data
}

// TestDistinctTable holds the kernel to the reference on every input order
// it distinguishes, at every width the executor produces.
func TestDistinctTable(t *testing.T) {
	for width := 1; width <= maxDistinctWidth; width++ {
		for si, sh := range distinctShapes {
			t.Run(fmt.Sprintf("w%d/%s", width, sh.name), func(t *testing.T) {
				checkDistinct(t, buildShape(rand.New(rand.NewSource(int64(si))), si, width), width)
			})
		}
	}
}

// TestDistinctProperty is the seeded property test: blocks of random
// width, length and value range — from a handful of distinct rows to
// almost none repeated — optionally presorted, must come out as the
// reference says.
func TestDistinctProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 400; iter++ {
		width := 1 + rng.Intn(maxDistinctWidth)
		n := rng.Intn(300)
		span := int64(1) << uint(1+rng.Intn(20))
		data := make([]int64, n*width)
		for i := range data {
			data[i] = rng.Int63n(span)
		}
		if rng.Intn(3) == 0 {
			// A presorted block with its duplicates left in.
			sorted := referenceDistinct(data, width)
			data = append(sorted, sorted[:len(sorted)/(2*width)*width]...)
			if rng.Intn(2) == 0 {
				data = sortRows(data, width)
			}
		}
		checkDistinct(t, data, width)
	}
}

// sortRows sorts without removing duplicates.
func sortRows(data []int64, width int) []int64 {
	rows := make([][]int64, 0, len(data)/width)
	for i := 0; i < len(data); i += width {
		rows = append(rows, data[i:i+width])
	}
	sort.Slice(rows, func(i, j int) bool { return slices.Compare(rows[i], rows[j]) < 0 })
	out := make([]int64, 0, len(data))
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// FuzzDistinct decodes bytes into a width and a block — one byte per
// value, reduced to a small range so that duplicates and ties on leading
// columns are common — and holds the kernel to the reference.
func FuzzDistinct(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 4, 3, 2, 1})
	f.Add([]byte{1, 1, 2, 1, 2, 3, 4, 3, 4})
	f.Add([]byte{2, 9, 9, 9, 9, 9, 9, 1, 1, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		width := 1 + int(b[0])%maxDistinctWidth
		vals := b[1:]
		vals = vals[:len(vals)/width*width]
		data := make([]int64, len(vals))
		for i, v := range vals {
			data[i] = int64(v%32) - 8
		}
		checkDistinct(t, data, width)
	})
}
