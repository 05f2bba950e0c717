package pathdict

// Pattern matching of linear path patterns against concrete schema paths.
//
// An index probe fixes the value and a schema-path prefix (the deepest
// //-free suffix of the branch, reversed); whatever structural constraints
// remain — interior // edges, the root anchor — are verified against the
// full concrete schema path carried in each matching key. The matcher also
// enumerates the positions at which pattern steps bind, so the planner can
// pull branch-point and output ids out of the row's IdList.

// PStep is one step of a compiled linear pattern.
type PStep struct {
	// Desc is true for a // (ancestor-descendant) edge into this step;
	// for the first step it means "at any depth" rather than "at the
	// document root".
	Desc bool
	Sym  Sym
}

// CompileSteps converts (descendant?, label) pairs into PSteps using d.
// ok is false if some label has never been interned, in which case the
// pattern cannot match any path in the database.
func CompileSteps(d *Dict, descs []bool, labels []string) (pat []PStep, ok bool) {
	if len(descs) != len(labels) {
		panic("pathdict: CompileSteps length mismatch")
	}
	pat = make([]PStep, len(labels))
	for i, l := range labels {
		s, found := d.Sym(l)
		if !found {
			return nil, false
		}
		pat[i] = PStep{Desc: descs[i], Sym: s}
	}
	return pat, true
}

// MatchPath reports whether the pattern matches the concrete path, anchored
// at both ends: the last pattern step must bind to the last path element,
// and a non-// first step must bind to the first (document-root) element.
func MatchPath(pat []PStep, path Path) bool {
	return matchFrom(pat, path, 0, startPositions(pat, path))
}

// startPositions returns candidate binding positions for pattern step 0.
func startPositions(pat []PStep, path Path) []int {
	if len(pat) == 0 || len(path) == 0 {
		return nil
	}
	if !pat[0].Desc {
		if path[0] == pat[0].Sym {
			return []int{0}
		}
		return nil
	}
	var out []int
	for i, s := range path {
		if s == pat[0].Sym {
			out = append(out, i)
		}
	}
	return out
}

func matchFrom(pat []PStep, path Path, step int, candidates []int) bool {
	for _, pos := range candidates {
		if matchRest(pat, path, step, pos) {
			return true
		}
	}
	return false
}

// matchRest checks whether pat[step:] can bind with pat[step] at pos.
func matchRest(pat []PStep, path Path, step, pos int) bool {
	if step == len(pat)-1 {
		return pos == len(path)-1
	}
	next := pat[step+1]
	if !next.Desc {
		return pos+1 < len(path) && path[pos+1] == next.Sym && matchRest(pat, path, step+1, pos+1)
	}
	for p := pos + 1; p < len(path); p++ {
		if path[p] == next.Sym && matchRest(pat, path, step+1, p) {
			return true
		}
	}
	return false
}

// EnumerateMatchesInto appends to dst every assignment of pattern steps to
// path positions: the assignments follow one another, len(pat) increasing
// positions each. Patterns with interior // edges can bind in several ways
// (e.g. //a//a on a/a/a); each distinct assignment can expose different
// branch-point ids, so all are enumerated, ordered by the position of the
// first step, then the second, and so on. A caller that passes the same
// buffer back (dst[:0]) enumerates without allocating once it has grown.
func EnumerateMatchesInto(dst []int, pat []PStep, path Path) []int {
	k := len(pat)
	if k == 0 || len(path) == 0 {
		return dst
	}
	// The last k elements of dst are the assignment being built; a
	// completed one is kept by appending a copy of it as the next one.
	dst = append(dst, make([]int, k)...)
	if !pat[0].Desc {
		if path[0] == pat[0].Sym {
			dst = enumerateFrom(dst, pat, path, 0, 0)
		}
	} else {
		for i, s := range path {
			if s == pat[0].Sym {
				dst = enumerateFrom(dst, pat, path, 0, i)
			}
		}
	}
	return dst[:len(dst)-k]
}

// enumerateFrom binds pat[step] at pos in the assignment under
// construction and enumerates the bindings of the remaining steps.
func enumerateFrom(dst []int, pat []PStep, path Path, step, pos int) []int {
	k := len(pat)
	dst[len(dst)-k+step] = pos
	if step == k-1 {
		if pos == len(path)-1 {
			dst = append(dst, dst[len(dst)-k:]...)
		}
		return dst
	}
	next := pat[step+1]
	if !next.Desc {
		if pos+1 < len(path) && path[pos+1] == next.Sym {
			dst = enumerateFrom(dst, pat, path, step+1, pos+1)
		}
		return dst
	}
	for p := pos + 1; p < len(path); p++ {
		if path[p] == next.Sym {
			dst = enumerateFrom(dst, pat, path, step+1, p)
		}
	}
	return dst
}

// LongestAnchoredSuffix returns the length (in steps, from the end) of the
// deepest //-free suffix of the pattern: the maximal k such that
// pat[len-k:] contains only child edges (the // edge *into* pat[len-k] is
// permitted — a PCsubpath may begin with //, paper Section 2.2). That suffix,
// reversed, is the B+-tree probe prefix.
func LongestAnchoredSuffix(pat []PStep) int {
	k := 1
	for k < len(pat) && !pat[len(pat)-k].Desc {
		k++
	}
	return k
}

// SuffixProbe builds the reversed designator sequence for the deepest
// //-free suffix of pat, plus whether the pattern is *simple*: free of
// interior // edges. For a simple pattern every row in the probe range binds
// uniquely to the last k path positions; if the pattern is additionally
// root-anchored (no leading //) the only residual check is
// len(path) == len(pat), and with a leading // no residual check is needed
// at all. Non-simple patterns verify rows with EnumerateMatchesInto.
func SuffixProbe(pat []PStep) (rev Path, simple bool) {
	k := LongestAnchoredSuffix(pat)
	rev = make(Path, 0, k)
	for i := len(pat) - 1; i >= len(pat)-k; i-- {
		rev = append(rev, pat[i].Sym)
	}
	return rev, k == len(pat)
}
