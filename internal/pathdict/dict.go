// Package pathdict implements the schema-path machinery of the paper's
// Section 3.1: element tags and attribute names are dictionary-encoded into
// fixed-width designators; schema paths are sequences of designators that can
// be reversed (turning B+-tree prefix matching into the suffix matching
// needed for PCsubpath patterns with a leading //); and composite index keys
// over (HeadId, LeafValue, ReverseSchemaPath) are encoded order-preservingly
// so that every index of the family is an ordinary B+-tree over byte strings.
package pathdict

import (
	"fmt"
	"sync"
)

// Sym is a dictionary-encoded designator for an element tag or attribute
// name. Symbols are fixed width (2 bytes big-endian) in encoded paths, the
// generalisation of the paper's one-character designators ("whose lengths
// depend on the dictionary size"). Symbol 0 is reserved.
type Sym uint16

// Dict interns tag/attribute labels as symbols. It is safe for concurrent
// use: lookups take a shared latch and interning takes it exclusively, so
// concurrent readers never race with a build or incremental update that
// interns new labels.
type Dict struct {
	mu         sync.RWMutex
	symByLabel map[string]Sym
	labels     []string // labels[s] is the label of symbol s; labels[0] unused
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{
		symByLabel: make(map[string]Sym),
		labels:     []string{""},
	}
}

// Intern returns the symbol for label, assigning a new one if needed.
func (d *Dict) Intern(label string) Sym {
	d.mu.RLock()
	s, ok := d.symByLabel[label]
	d.mu.RUnlock()
	if ok {
		return s
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.symByLabel[label]; ok {
		return s
	}
	if len(d.labels) > 0xFFFF {
		panic("pathdict: dictionary overflow (more than 65535 distinct labels)")
	}
	s = Sym(len(d.labels))
	d.labels = append(d.labels, label)
	d.symByLabel[label] = s
	return s
}

// Sym returns the symbol for label, if interned.
func (d *Dict) Sym(label string) (Sym, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s, ok := d.symByLabel[label]
	return s, ok
}

// Label returns the label of s, or "" if s is unknown.
func (d *Dict) Label(s Sym) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(s) >= len(d.labels) {
		return ""
	}
	return d.labels[s]
}

// Size returns the number of interned labels.
func (d *Dict) Size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.labels) - 1
}

// Path is a schema path: the designator sequence of a data path, root end
// first (e.g. book.allauthors.author.fn ~ "BUAF" in the paper's Figure 2).
type Path []Sym

// Reverse returns a new Path with the symbols in reverse order ("FAUB"),
// the paper's device for supporting leading-// suffix matches via B+-tree
// prefix matches.
func (p Path) Reverse() Path {
	out := make(Path, len(p))
	for i, s := range p {
		out[len(p)-1-i] = s
	}
	return out
}

// String renders the path with the dictionary's labels, for diagnostics.
func (p Path) String(d *Dict) string {
	s := ""
	for i, sym := range p {
		if i > 0 {
			s += "/"
		}
		s += d.Label(sym)
	}
	return s
}

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// PathID identifies a distinct schema path in a PathTable. It doubles as the
// SchemaPathId of the lossy dictionary compression of Section 4.2.
type PathID int32

// PathTable assigns dense ids to distinct schema paths. It is the registry
// behind (a) the "one relation per distinct schema path" construction of
// ASRs and Join Indices, and (b) SchemaPathId compression. Like Dict it is
// latched: concurrent lookups are shared, interning is exclusive. Do not
// call Intern from inside an All callback (the callback runs under the
// shared latch).
type PathTable struct {
	mu    sync.RWMutex
	byKey map[string]PathID
	paths []Path
}

// NewPathTable returns an empty table.
func NewPathTable() *PathTable {
	return &PathTable{byKey: make(map[string]PathID)}
}

func pathKey(p Path) string {
	b := make([]byte, 0, len(p)*2)
	b = AppendPath(b, p)
	return string(b)
}

// Intern returns the id for path, registering it if new. The path is copied.
func (t *PathTable) Intern(p Path) PathID {
	k := pathKey(p)
	t.mu.RLock()
	id, ok := t.byKey[k]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byKey[k]; ok {
		return id
	}
	id = PathID(len(t.paths))
	t.paths = append(t.paths, append(Path(nil), p...))
	t.byKey[k] = id
	return id
}

// Lookup returns the id for path, if registered.
func (t *PathTable) Lookup(p Path) (PathID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.byKey[pathKey(p)]
	return id, ok
}

// Path returns the path with the given id.
func (t *PathTable) Path(id PathID) Path {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.paths[id]
}

// Len returns the number of distinct paths (the paper reports 235 for DBLP
// and 902 for XMark).
func (t *PathTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.paths)
}

// All calls fn for every (id, path) in id order, under the shared latch.
func (t *PathTable) All(fn func(PathID, Path)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, p := range t.paths {
		fn(PathID(i), p)
	}
}

// MustSyms converts labels to a Path, panicking on unknown labels; a test
// helper.
func (d *Dict) MustSyms(labels ...string) Path {
	p := make(Path, len(labels))
	for i, l := range labels {
		s, ok := d.Sym(l)
		if !ok {
			panic(fmt.Sprintf("pathdict: label %q not interned", l))
		}
		p[i] = s
	}
	return p
}
