// Package cowmap is the copy-on-write hash map behind the engine's
// versioned in-memory state (the store's id index, the statistics' counts).
// A version is three layers: a frozen base shared by pointer between
// versions, a frozen middle layer shared the same way, and a small private
// delta of the keys the version changed. Taking a version copies only the
// delta, which is folded into a new middle layer once it passes about
// √len(base) keys, so a version costs O(√n). The middle layer is folded
// into a new base once it passes a fixed fraction of the base. Per changed
// key the middle fold costs amortised O(√n / 16) and the base fold
// amortised O(1).
package cowmap

import (
	"maps"
	"math"
)

// The fold thresholds: a delta longer than √len(base) + deltaMin is folded
// into a new middle layer, and a middle layer longer than
// len(base)/midDiv + midMin into a new base. Every fold rebuilds a Go map
// key by key, so the three costs a version pays — copying its delta,
// its share of the middle folds, its share of the base folds — are
// balanced for versions that change a few dozen keys of a map of 10⁴–10⁵:
// a smaller midDiv folds the base less often but the middle layer at a
// greater size.
const (
	deltaMin = 16
	midDiv   = 8
	midMin   = 64
)

// Map maps K to V, where the zero V means "absent": setting a key to the
// zero value deletes it, and Get of a missing key returns the zero value.
// The zero Map is empty and ready to use.
//
// A Map is not safe for concurrent writes. Once Clone has been called, the
// original must not be written again (readers of both stay safe: base and
// middle layer are never modified after they are shared).
type Map[K comparable, V comparable] struct {
	base  map[K]V
	mid   map[K]V // frozen changes over base; a zero value marks a deleted key
	delta map[K]V // this version's changes over mid, same encoding
	own   bool    // base is private to this map: write through to it
	n     int     // live (non-zero) entries while !own
}

// From returns a map owning m as its base. m must hold no zero values and
// must not be used by the caller afterwards.
func From[K comparable, V comparable](m map[K]V) Map[K, V] {
	return Map[K, V]{base: m, own: true}
}

// Get returns the value of k, or the zero value if k is absent.
func (m *Map[K, V]) Get(k K) V {
	if v, ok := m.delta[k]; ok {
		return v
	}
	if v, ok := m.mid[k]; ok {
		return v
	}
	return m.base[k]
}

// Len returns the number of keys present.
func (m *Map[K, V]) Len() int {
	if m.own {
		return len(m.base)
	}
	return m.n
}

// Set stores v under k; the zero value deletes k.
func (m *Map[K, V]) Set(k K, v V) {
	var zero V
	if m.own || m.base == nil {
		if m.base == nil {
			m.base, m.own = map[K]V{}, true
		}
		if v == zero {
			delete(m.base, k)
		} else {
			m.base[k] = v
		}
		return
	}
	switch old := m.Get(k); {
	case old == zero && v != zero:
		m.n++
	case old != zero && v == zero:
		m.n--
	}
	if m.delta == nil {
		m.delta = map[K]V{}
	}
	m.delta[k] = v
	if len(m.delta) > int(math.Sqrt(float64(len(m.base))))+deltaMin {
		m.foldDelta()
	}
}

// Add stores v (not the zero value) under k and reports whether k was
// absent before.
func (m *Map[K, V]) Add(k K, v V) bool {
	if m.own {
		n := len(m.base)
		m.base[k] = v
		return len(m.base) > n
	}
	var zero V
	absent := m.Get(k) == zero
	m.Set(k, v)
	return absent
}

// foldDelta merges the delta into a new middle layer, and that into a new,
// privately owned base once it outgrows its share of the base.
func (m *Map[K, V]) foldDelta() {
	mid := maps.Clone(m.mid)
	if mid == nil {
		mid = make(map[K]V, len(m.delta))
	}
	maps.Copy(mid, m.delta)
	m.mid, m.delta = mid, nil
	if len(m.mid) <= len(m.base)/midDiv+midMin {
		return
	}
	var zero V
	base := maps.Clone(m.base)
	for k, v := range m.mid {
		if v == zero {
			delete(base, k)
		} else {
			base[k] = v
		}
	}
	m.base, m.mid, m.own = base, nil, true
}

// Clone returns a new version of the map sharing m's base and middle
// layer and holding a copy of m's delta: O(√len(base)). m is frozen from
// now on.
func (m *Map[K, V]) Clone() Map[K, V] {
	return Map[K, V]{base: m.base, mid: m.mid, delta: maps.Clone(m.delta), n: m.Len()}
}

// Range calls fn for every present key, in no particular order.
func (m *Map[K, V]) Range(fn func(K, V)) {
	var zero V
	for k, v := range m.base {
		if _, changed := m.mid[k]; changed {
			continue
		}
		if _, changed := m.delta[k]; !changed {
			fn(k, v)
		}
	}
	for k, v := range m.mid {
		if _, changed := m.delta[k]; !changed && v != zero {
			fn(k, v)
		}
	}
	for k, v := range m.delta {
		if v != zero {
			fn(k, v)
		}
	}
}
