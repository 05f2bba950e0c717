// Package naive implements a direct in-memory twig matcher over the XML
// tree. It is the correctness oracle: every index-based evaluation strategy
// must return exactly the node ids this matcher returns. It makes no use of
// any index structure and is deliberately simple rather than fast.
package naive

import (
	"sort"

	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// Match returns the sorted, distinct ids of the data nodes bound to the
// pattern's output node across all matches of the twig in the store.
func Match(store *xmldb.Store, pat *xpath.Pattern) []int64 {
	m := &matcher{embed: map[embedKey]bool{}}

	// Candidate bindings for the output node: nodes where the output
	// node's own subtree embeds, and the path up to the pattern root
	// (including all off-path sibling predicates) is satisfied.
	var out []int64
	store.Walk(func(d *xmldb.Node) bool {
		if m.embeds(pat.Output, d) && m.upMatch(store, pat.Output, d) {
			out = append(out, d.ID)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Walk visits each node once, so out is already distinct.
	return out
}

type embedKey struct {
	p *xpath.Node
	d int64
}

type matcher struct {
	embed map[embedKey]bool
}

// labelValueOK checks the node-local conditions of a pattern node.
func labelValueOK(p *xpath.Node, d *xmldb.Node) bool {
	if d.Label != p.Label {
		return false
	}
	if p.HasValue && (!d.HasValue || d.Value != p.Value) {
		return false
	}
	return true
}

// embeds reports whether the pattern subtree rooted at p can be embedded
// with p bound to d (node conditions plus all child subtrees).
func (m *matcher) embeds(p *xpath.Node, d *xmldb.Node) bool {
	if !labelValueOK(p, d) {
		return false
	}
	key := embedKey{p, d.ID}
	if v, ok := m.embed[key]; ok {
		return v
	}
	// Guard against re-entry (not possible on trees, but harmless).
	m.embed[key] = false
	ok := true
	for _, pc := range p.Children {
		if !m.existsBelow(pc, d) {
			ok = false
			break
		}
	}
	m.embed[key] = ok
	return ok
}

// existsBelow reports whether pattern node pc can bind to some child
// (axis Child) or proper descendant (axis Descendant) of d.
func (m *matcher) existsBelow(pc *xpath.Node, d *xmldb.Node) bool {
	if pc.Axis == xpath.Child {
		for _, dc := range d.Children {
			if m.embeds(pc, dc) {
				return true
			}
		}
		return false
	}
	var rec func(n *xmldb.Node) bool
	rec = func(n *xmldb.Node) bool {
		for _, dc := range n.Children {
			if m.embeds(pc, dc) || rec(dc) {
				return true
			}
		}
		return false
	}
	return rec(d)
}

// upMatch reports whether binding p to d is consistent with the pattern
// path from the root down to p: every pattern ancestor binds to a data
// ancestor with the right axis relationship, carries its own node
// conditions, and embeds all of its other (off-path) child subtrees.
func (m *matcher) upMatch(store *xmldb.Store, p *xpath.Node, d *xmldb.Node) bool {
	up := store.Parent(d)
	pp := p.Parent
	if pp == nil {
		// p is the pattern root: anchor at a document root for /, any
		// node for //.
		if p.Axis == xpath.Descendant {
			return true
		}
		return up != nil && up.ID == 0
	}
	check := func(da *xmldb.Node) bool {
		if !labelValueOK(pp, da) {
			return false
		}
		for _, sibling := range pp.Children {
			if sibling == p {
				continue
			}
			if !m.existsBelow(sibling, da) {
				return false
			}
		}
		return m.upMatch(store, pp, da)
	}
	if p.Axis == xpath.Child {
		return up != nil && up.ID != 0 && check(up)
	}
	for da := up; da != nil && da.ID != 0; da = store.Parent(da) {
		if check(da) {
			return true
		}
	}
	return false
}
