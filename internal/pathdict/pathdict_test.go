package pathdict

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestDictIntern(t *testing.T) {
	d := NewDict()
	b := d.Intern("book")
	if b2 := d.Intern("book"); b2 != b {
		t.Fatalf("re-intern changed symbol: %d vs %d", b, b2)
	}
	ti := d.Intern("title")
	if ti == b {
		t.Fatalf("distinct labels share a symbol")
	}
	if d.Label(b) != "book" || d.Label(ti) != "title" {
		t.Fatalf("Label round trip failed")
	}
	if _, ok := d.Sym("nope"); ok {
		t.Fatalf("Sym of unknown label returned ok")
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d", d.Size())
	}
	if d.Label(999) != "" {
		t.Fatalf("unknown symbol label not empty")
	}
}

func TestPathReverse(t *testing.T) {
	p := Path{1, 2, 3, 4}
	r := p.Reverse()
	want := Path{4, 3, 2, 1}
	if !r.Equal(want) {
		t.Fatalf("Reverse = %v", r)
	}
	if !r.Reverse().Equal(p) {
		t.Fatalf("Reverse not an involution")
	}
	if !(Path{}).Reverse().Equal(Path{}) {
		t.Fatalf("empty reverse")
	}
}

func TestPathReverseInvolutionQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		p := make(Path, len(raw))
		for i, r := range raw {
			p[i] = Sym(r)
		}
		return p.Reverse().Reverse().Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathTable(t *testing.T) {
	tab := NewPathTable()
	p1 := tab.Intern(Path{1, 2, 3})
	p2 := tab.Intern(Path{1, 2})
	p3 := tab.Intern(Path{1, 2, 3})
	if p1 != p3 {
		t.Fatalf("re-intern gave new id")
	}
	if p1 == p2 {
		t.Fatalf("distinct paths share an id")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if !tab.Path(p1).Equal(Path{1, 2, 3}) {
		t.Fatalf("Path(%d) = %v", p1, tab.Path(p1))
	}
	if id, ok := tab.Lookup(Path{1, 2}); !ok || id != p2 {
		t.Fatalf("Lookup = %v, %v", id, ok)
	}
	if _, ok := tab.Lookup(Path{9}); ok {
		t.Fatalf("Lookup of unknown path succeeded")
	}
	count := 0
	tab.All(func(id PathID, p Path) { count++ })
	if count != 2 {
		t.Fatalf("All visited %d", count)
	}
}

func TestValueFieldRoundTrip(t *testing.T) {
	cases := []struct {
		has bool
		val string
	}{
		{false, ""},
		{true, ""},
		{true, "jane"},
		{true, "a\x00b"},
		{true, "\x00"},
		{true, "\x00\x00"},
		{true, "trailing\x00"},
		{true, "46814.17"},
	}
	for _, c := range cases {
		enc := AppendValueField(nil, c.has, c.val)
		enc = append(enc, 0xAB, 0xCD) // trailing key bytes
		has, val, rest, err := DecodeValueField(enc)
		if err != nil {
			t.Fatalf("decode %q: %v", c.val, err)
		}
		if has != c.has || val != c.val {
			t.Fatalf("round trip (%v,%q) -> (%v,%q)", c.has, c.val, has, val)
		}
		if !bytes.Equal(rest, []byte{0xAB, 0xCD}) {
			t.Fatalf("rest = %x", rest)
		}
	}
}

// TestValueFieldOrderPreserving is the core property behind using plain
// B+-trees: bytewise order of encoded fields equals logical column order
// (null first, then values in byte order).
func TestValueFieldOrderPreserving(t *testing.T) {
	f := func(a, b string) bool {
		ea := AppendValueField(nil, true, a)
		eb := AppendValueField(nil, true, b)
		cmpEnc := bytes.Compare(ea, eb)
		cmpRaw := bytes.Compare([]byte(a), []byte(b))
		return sign(cmpEnc) == sign(cmpRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	null := AppendValueField(nil, false, "")
	if bytes.Compare(null, AppendValueField(nil, true, "")) >= 0 {
		t.Fatalf("null does not sort before empty string")
	}
}

// TestValueFieldPrefixFreedom: no encoded value field is a strict prefix of
// another (needed so a probe on (value, pathPrefix) cannot bleed into rows
// of a different value).
func TestValueFieldPrefixFreedom(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return true
		}
		ea := AppendValueField(nil, true, a)
		eb := AppendValueField(nil, true, b)
		return !bytes.HasPrefix(eb, ea) && !bytes.HasPrefix(ea, eb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestValueFieldDecodeErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{0x07},             // bad marker
		{0x02, 'a'},        // unterminated
		{0x02, 0x00},       // dangling escape
		{0x02, 0x00, 0x09}, // bad escape byte
	}
	for _, b := range bad {
		if _, _, _, err := DecodeValueField(b); err == nil {
			t.Errorf("DecodeValueField(%x): want error", b)
		}
	}
}

// decodePathsKey splits a ROOTPATHS (or, headed, DATAPATHS) key back into
// its columns.
func decodePathsKey(key []byte, headed bool) (headID int64, hasValue bool, value string, rev Path, err error) {
	if headed {
		if headID, key, err = DecodeID(key); err != nil {
			return 0, false, "", nil, err
		}
	}
	hasValue, value, rest, err := DecodeValueField(key)
	if err != nil {
		return 0, false, "", nil, err
	}
	rev, err = DecodePath(rest)
	return headID, hasValue, value, rev, err
}

func TestRootPathsKeyRoundTrip(t *testing.T) {
	rev := Path{5, 4, 3}
	key := PathsKey(nil, false, 0, true, "jane", rev)
	_, has, val, p, err := decodePathsKey(key, false)
	if err != nil || !has || val != "jane" || !p.Equal(rev) {
		t.Fatalf("round trip = %v %q %v %v", has, val, p, err)
	}
	key2 := PathsKey(nil, false, 0, false, "", rev)
	_, has, val, p, err = decodePathsKey(key2, false)
	if err != nil || has || val != "" || !p.Equal(rev) {
		t.Fatalf("null round trip = %v %q %v %v", has, val, p, err)
	}
	// A probe prefix for ('jane', FA*) must be a byte prefix of the full
	// key for ('jane', FAUB).
	probe := PathsKey(nil, false, 0, true, "jane", Path{5, 4})
	if !bytes.HasPrefix(key, probe) {
		t.Fatalf("path prefix is not a key prefix")
	}
}

func TestDataPathsKeyRoundTrip(t *testing.T) {
	rev := Path{9, 1}
	key := PathsKey(nil, true, 41, true, "doe", rev)
	head, has, val, p, err := decodePathsKey(key, true)
	if err != nil || head != 41 || !has || val != "doe" || !p.Equal(rev) {
		t.Fatalf("round trip = %d %v %q %v %v", head, has, val, p, err)
	}
	// Probes for different head ids must not overlap.
	k1 := PathsKey(nil, true, 1, true, "doe", rev)
	if bytes.HasPrefix(key, k1[:8]) {
		t.Fatalf("head id ranges overlap")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeID([]byte{1, 2}); err == nil {
		t.Fatalf("short id: want error")
	}
	if _, err := DecodePath([]byte{1}); err == nil {
		t.Fatalf("odd path: want error")
	}
	if _, _, _, _, err := decodePathsKey([]byte{0x02, 'a', 0x00, 0x01, 0x09}, false); err == nil {
		t.Fatalf("odd path tail: want error")
	}
	if _, _, _, _, err := decodePathsKey([]byte{1}, true); err == nil {
		t.Fatalf("short DP key: want error")
	}
}

func compile(t *testing.T, d *Dict, steps ...string) []PStep {
	t.Helper()
	var descs []bool
	var labels []string
	for _, s := range steps {
		if s[0] == '~' { // ~ marks a descendant edge in these tests
			descs = append(descs, true)
			labels = append(labels, s[1:])
		} else {
			descs = append(descs, false)
			labels = append(labels, s)
		}
	}
	pat, ok := CompileSteps(d, descs, labels)
	if !ok {
		t.Fatalf("CompileSteps(%v): unknown label", steps)
	}
	return pat
}

func testDict() *Dict {
	d := NewDict()
	for _, l := range []string{"site", "regions", "namerica", "africa", "item", "quantity", "a", "b", "c"} {
		d.Intern(l)
	}
	return d
}

func TestMatchPath(t *testing.T) {
	d := testDict()
	path := d.MustSyms("site", "regions", "namerica", "item", "quantity")

	cases := []struct {
		pat  []PStep
		want bool
	}{
		{compile(t, d, "site", "regions", "namerica", "item", "quantity"), true},
		{compile(t, d, "~quantity"), true},
		{compile(t, d, "~item", "quantity"), true},
		{compile(t, d, "site", "~item", "quantity"), true},
		{compile(t, d, "site", "~quantity"), true},
		{compile(t, d, "regions", "~quantity"), false}, // not root-anchored
		{compile(t, d, "~item"), false},                // must end at last element
		{compile(t, d, "site", "item", "quantity"), false},
		{compile(t, d, "~regions", "~item", "~quantity"), true},
		{compile(t, d, "site", "regions", "namerica", "item", "quantity", "a"), false},
	}
	for i, c := range cases {
		if got := MatchPath(c.pat, path); got != c.want {
			t.Errorf("case %d: MatchPath = %v, want %v", i, got, c.want)
		}
	}
}

// EnumerateMatches is the test oracle for EnumerateMatchesInto: the same
// enumeration written the plain way, one []int per assignment.
func EnumerateMatches(pat []PStep, path Path) [][]int {
	var out [][]int
	var bind func(pos []int)
	bind = func(pos []int) {
		step := len(pos)
		if step == len(pat) {
			if pos[step-1] == len(path)-1 {
				out = append(out, slices.Clone(pos))
			}
			return
		}
		lo, hi := 0, len(path)
		if step > 0 {
			lo = pos[step-1] + 1
		}
		if !pat[step].Desc {
			hi = min(hi, lo+1)
		}
		for p := lo; p < hi; p++ {
			if path[p] == pat[step].Sym {
				bind(append(pos, p))
			}
		}
	}
	if len(pat) > 0 {
		bind(nil)
	}
	return out
}

func TestEnumerateMatchesAmbiguous(t *testing.T) {
	d := testDict()
	path := d.MustSyms("a", "a", "a")
	pat := compile(t, d, "~a", "~a")
	got := EnumerateMatches(pat, path)
	// (0,2) and (1,2): the last step is anchored at the end.
	if len(got) != 2 {
		t.Fatalf("matches = %v, want 2 assignments", got)
	}
	for _, m := range got {
		if m[1] != 2 || m[0] >= m[1] {
			t.Fatalf("bad assignment %v", m)
		}
	}
}

func TestEnumerateMatchesUnique(t *testing.T) {
	d := testDict()
	path := d.MustSyms("site", "regions", "namerica", "item", "quantity")
	pat := compile(t, d, "site", "~item", "quantity")
	got := EnumerateMatches(pat, path)
	if len(got) != 1 {
		t.Fatalf("matches = %v", got)
	}
	want := []int{0, 3, 4}
	for i := range want {
		if got[0][i] != want[i] {
			t.Fatalf("assignment = %v, want %v", got[0], want)
		}
	}
}

// TestEnumerateMatchesInto pins the flat enumeration against assignments
// written out by hand (and the [][]int oracle above), in the order it documents, and its
// buffer contract: what dst already holds stays, and a buffer handed back
// is filled in place.
func TestEnumerateMatchesInto(t *testing.T) {
	d := testDict()
	for _, tc := range []struct {
		name string
		pat  []PStep
		path Path
		want [][]int
	}{
		{"//a//a on a/a/a", compile(t, d, "~a", "~a"), d.MustSyms("a", "a", "a"),
			[][]int{{0, 2}, {1, 2}}},
		{"//a//a//a on a/a/a/a", compile(t, d, "~a", "~a", "~a"), d.MustSyms("a", "a", "a", "a"),
			[][]int{{0, 1, 3}, {0, 2, 3}, {1, 2, 3}}},
		{"/a//a on a/a/a", compile(t, d, "a", "~a"), d.MustSyms("a", "a", "a"),
			[][]int{{0, 2}}},
		{"//a/a on a/a/a", compile(t, d, "~a", "a"), d.MustSyms("a", "a", "a"),
			[][]int{{1, 2}}},
		{"//a//b/a on a/b/a/b/a", compile(t, d, "~a", "~b", "a"), d.MustSyms("a", "b", "a", "b", "a"),
			[][]int{{0, 3, 4}, {2, 3, 4}}},
		{"//a//b on a/a/a", compile(t, d, "~a", "~b"), d.MustSyms("a", "a", "a"), nil},
		{"//a on a", compile(t, d, "~a"), d.MustSyms("a"), [][]int{{0}}},
	} {
		var flat []int
		for _, m := range tc.want {
			flat = append(flat, m...)
		}
		if got := EnumerateMatches(tc.pat, tc.path); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: EnumerateMatches = %v, want %v", tc.name, got, tc.want)
		}
		got := EnumerateMatchesInto([]int{-7}, tc.pat, tc.path)
		if got[0] != -7 || !slices.Equal(got[1:], flat) {
			t.Errorf("%s: EnumerateMatchesInto after [-7] = %v, want [-7] then %v", tc.name, got, flat)
		}
		// Handed back, the grown buffer is refilled where it is.
		again := EnumerateMatchesInto(got[:0], tc.pat, tc.path)
		if !slices.Equal(again, flat) || &again[:1][0] != &got[0] {
			t.Errorf("%s: EnumerateMatchesInto into its own buffer = %v (moved: %v), want %v in place",
				tc.name, again, &again[:1][0] != &got[0], flat)
		}
	}
}

func TestLongestAnchoredSuffixAndProbe(t *testing.T) {
	d := testDict()
	cases := []struct {
		pat    []PStep
		wantK  int
		simple bool
	}{
		{compile(t, d, "a", "b", "c"), 3, true},
		{compile(t, d, "~a", "b", "c"), 3, true},
		{compile(t, d, "a", "~b", "c"), 2, false},
		{compile(t, d, "a", "b", "~c"), 1, false},
		{compile(t, d, "~c"), 1, true},
	}
	for i, c := range cases {
		if k := LongestAnchoredSuffix(c.pat); k != c.wantK {
			t.Errorf("case %d: k = %d, want %d", i, k, c.wantK)
		}
		rev, simple := SuffixProbe(c.pat)
		if simple != c.simple {
			t.Errorf("case %d: simple = %v, want %v", i, simple, c.simple)
		}
		if len(rev) != c.wantK {
			t.Errorf("case %d: probe len = %d, want %d", i, len(rev), c.wantK)
		}
		// The probe is the suffix reversed.
		for j := 0; j < c.wantK; j++ {
			if rev[j] != c.pat[len(c.pat)-1-j].Sym {
				t.Errorf("case %d: probe[%d] = %d", i, j, rev[j])
			}
		}
	}
}

func TestCompileStepsUnknownLabel(t *testing.T) {
	d := testDict()
	if _, ok := CompileSteps(d, []bool{false}, []string{"nope"}); ok {
		t.Fatalf("CompileSteps with unknown label returned ok")
	}
}

// TestMatchAgainstBruteForce cross-checks MatchPath against a brute-force
// regex-style matcher on random small patterns and paths.
func TestMatchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	syms := []Sym{1, 2, 3}
	for iter := 0; iter < 5000; iter++ {
		plen := 1 + rng.Intn(5)
		path := make(Path, plen)
		for i := range path {
			path[i] = syms[rng.Intn(len(syms))]
		}
		klen := 1 + rng.Intn(4)
		pat := make([]PStep, klen)
		for i := range pat {
			pat[i] = PStep{Desc: rng.Intn(2) == 0, Sym: syms[rng.Intn(len(syms))]}
		}
		want := bruteMatch(pat, path)
		if got := MatchPath(pat, path); got != want {
			t.Fatalf("iter %d: MatchPath(%v, %v) = %v, want %v", iter, pat, path, got, want)
		}
		oracle := EnumerateMatches(pat, path)
		if got := len(oracle) > 0; got != want {
			t.Fatalf("iter %d: EnumerateMatches disagrees with brute force", iter)
		}
		var want1 []int
		for _, m := range oracle {
			want1 = append(want1, m...)
		}
		if flat := EnumerateMatchesInto(nil, pat, path); !slices.Equal(flat, want1) {
			t.Fatalf("iter %d: EnumerateMatchesInto(%v, %v) = %v, oracle has %v", iter, pat, path, flat, oracle)
		}
	}
}

// bruteMatch enumerates all increasing assignments directly.
func bruteMatch(pat []PStep, path Path) bool {
	var rec func(step, minPos int) bool
	rec = func(step, minPos int) bool {
		if step == len(pat) {
			return false
		}
		for pos := minPos; pos < len(path); pos++ {
			if path[pos] != pat[step].Sym {
				continue
			}
			if step > 0 && !pat[step].Desc && pos != minPos {
				continue
			}
			if step == 0 && !pat[step].Desc && pos != 0 {
				continue
			}
			if step == len(pat)-1 {
				if pos == len(path)-1 {
					return true
				}
			} else if rec(step+1, pos+1) {
				return true
			}
			if step > 0 && !pat[step].Desc {
				break
			}
			if step == 0 && !pat[step].Desc {
				break
			}
		}
		return false
	}
	return rec(0, 0)
}
