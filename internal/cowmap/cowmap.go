// Package cowmap is the copy-on-write hash map behind the engine's
// versioned in-memory state (the store's id index, the statistics' counts):
// a frozen base shared by pointer between versions plus a small private
// delta of the keys a version changed. Taking a version is O(delta), and
// the delta is folded into a fresh base once it outgrows a fixed fraction
// of the base, so the fold costs amortised O(1) per changed key.
package cowmap

import "maps"

// foldDiv and foldMin set the fold threshold: a delta longer than
// len(base)/foldDiv + foldMin is folded into a new base.
const (
	foldDiv = 32
	foldMin = 64
)

// Map maps K to V, where the zero V means "absent": setting a key to the
// zero value deletes it, and Get of a missing key returns the zero value.
// The zero Map is empty and ready to use.
//
// A Map is not safe for concurrent writes. Once Clone has been called, the
// original must not be written again (readers of both stay safe: the base
// is never modified after it is shared).
type Map[K comparable, V comparable] struct {
	base  map[K]V
	delta map[K]V // changed keys; a zero value marks a deleted key
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
	if len(m.delta) > len(m.base)/foldDiv+foldMin {
		m.fold()
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

// fold merges the delta into a new, privately owned base.
func (m *Map[K, V]) fold() {
	var zero V
	base := make(map[K]V, m.Len())
	for k, v := range m.base {
		if _, changed := m.delta[k]; !changed {
			base[k] = v
		}
	}
	for k, v := range m.delta {
		if v != zero {
			base[k] = v
		}
	}
	m.base, m.delta, m.own = base, nil, true
}

// Clone returns a new version of the map sharing m's base and holding a
// copy of m's delta: O(len(delta)). m is frozen from now on.
func (m *Map[K, V]) Clone() Map[K, V] {
	return Map[K, V]{base: m.base, delta: maps.Clone(m.delta), n: m.Len()}
}

// Range calls fn for every present key, in no particular order.
func (m *Map[K, V]) Range(fn func(K, V)) {
	var zero V
	for k, v := range m.base {
		if _, changed := m.delta[k]; !changed {
			fn(k, v)
		}
	}
	for k, v := range m.delta {
		if v != zero {
			fn(k, v)
		}
	}
}
