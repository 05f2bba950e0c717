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
