package cowmap

import (
	"maps"
	"math/rand"
	"testing"
)

// TestMapVersionsMatchModel: a chain of versions, each written after it is
// cloned — enough writes to fold several times — must each keep reading
// exactly like a plain map copied at the same point.
func TestMapVersionsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Map[int, int]
	versions := []*Map[int, int]{&m}
	models := []map[int]int{{}}
	for step := 0; step < 20000; step++ {
		cur, model := versions[len(versions)-1], models[len(models)-1]
		if rng.Intn(500) == 0 {
			next := cur.Clone()
			versions = append(versions, &next)
			models = append(models, maps.Clone(model))
			continue
		}
		k, v := rng.Intn(3000), rng.Intn(4)
		cur.Set(k, v)
		if v == 0 {
			delete(model, k)
		} else {
			model[k] = v
		}
	}
	for i, v := range versions {
		model := models[i]
		if v.Len() != len(model) {
			t.Fatalf("version %d: Len %d, model %d", i, v.Len(), len(model))
		}
		for k := 0; k < 3000; k++ {
			if got := v.Get(k); got != model[k] {
				t.Fatalf("version %d: Get(%d) = %d, model %d", i, k, got, model[k])
			}
		}
		seen := map[int]int{}
		v.Range(func(k, n int) { seen[k] = n })
		if !maps.Equal(seen, model) {
			t.Fatalf("version %d: Range differs from the model", i)
		}
	}
}

// TestCloneCopiesAtMostSqrtN: over a 40,000-key base, a chain of versions
// that each change a few keys never hands a clone more than
// √len(base) + deltaMin delta keys to copy, the middle layer never passes
// its fold threshold, and the last version still reads like the model.
func TestCloneCopiesAtMostSqrtN(t *testing.T) {
	const n = 40000
	base := make(map[int]int, n)
	for k := 0; k < n; k++ {
		base[k] = k + 1
	}
	model := maps.Clone(base)
	m := From(base)
	rng := rand.New(rand.NewSource(2))
	maxDelta, maxMid := 0, 0
	for v := 0; v < 3000; v++ {
		next := m.Clone()
		m = next
		for i := 0; i < 7; i++ {
			k, val := rng.Intn(n+500), rng.Intn(3)
			m.Set(k, val)
			if val == 0 {
				delete(model, k)
			} else {
				model[k] = val
			}
		}
		maxDelta = max(maxDelta, len(m.delta))
		maxMid = max(maxMid, len(m.mid))
	}
	if limit := 200 + deltaMin; maxDelta > limit {
		t.Fatalf("a version carried %d delta keys, want at most %d", maxDelta, limit)
	}
	if limit := n/midDiv + midMin + 200 + deltaMin; maxMid > limit {
		t.Fatalf("the middle layer reached %d keys, want at most %d", maxMid, limit)
	}
	if m.Len() != len(model) {
		t.Fatalf("Len %d, model %d", m.Len(), len(model))
	}
	seen := map[int]int{}
	m.Range(func(k, v int) { seen[k] = v })
	if !maps.Equal(seen, model) {
		t.Fatal("Range differs from the model")
	}
}
