// Package index implements the paper's family of indices over the 4-ary
// relation (Section 3, Figure 3):
//
//	Index         SchemaPath subset      IdList sublist   Indexed columns
//	-----         -----------------      --------------   ---------------
//	Edge/value    length-1 paths         last id          SchemaPath, LeafValue
//	Edge/forward  length-1 paths         last id          HeadId, SchemaPath
//	DataGuide     root-path prefixes     last id          SchemaPath
//	Index Fabric  root-to-leaf paths     last id          SchemaPath, LeafValue
//	ROOTPATHS     root-path prefixes     full IdList      LeafValue, rev SchemaPath
//	DATAPATHS     all subpaths           full IdList      LeafValue, HeadId, rev SchemaPath
//
// plus the object/relational baselines the paper compares against: Access
// Support Relations (one relation per distinct schema path, ids in separate
// columns) and Join Indices (two B+-trees of endpoint pairs per distinct
// schema path).
//
// Every structure is an ordinary B+-tree over order-preservingly encoded
// byte keys, so all of them can be driven by a relational query processor —
// the paper's central integration requirement.
//
// The table is the design, and the package says each part of it once. The
// rows of the relation come from one walk, pathrel.Emit, whatever subset of
// heads and columns a builder — or Section 7 maintenance — keeps of them.
// ROOTPATHS and DATAPATHS are one type, Paths: the last two rows differ by
// the HeadId key column alone. And every probe is the same act — encode the
// indexed columns a query fixes as a key prefix into the caller's Scratch,
// run btree.Tree.ScanPrefix, decode one row — so every probe method has the
// shape (sc *Scratch, fixed columns..., fn) (rows, err), draws its buffers
// from sc, and reports an entry too short for its columns as
// ErrCorruptEntry.
package index

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/containment"
	"repro/internal/pathdict"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// Kind identifies a member of the index family.
type Kind int

const (
	KindRootPaths Kind = iota
	KindDataPaths
	KindEdge
	KindDataGuide
	KindIndexFabric
	KindASR
	KindJoinIndex
	KindXRel
	// KindContainment is the region-encoded element-list index of the
	// structural-join extension (package containment).
	KindContainment
	// NumKinds is the number of family members; it stays last.
	NumKinds
)

// Structure is a built, persisted member of the family, as the engine sees
// it: which member it is, its footprint, the device pages its B+-trees
// occupy (online backup copies exactly those), and its catalog record.
type Structure interface {
	Kind() Kind
	Space() Space
	WalkPages(fn func(storage.PageID) error) error
	// AppendRecord appends the structure's catalog record; the open
	// function of its family row reads it back.
	AppendRecord(w *CatWriter)
}

// Maintained is a Structure that follows subtree updates incrementally
// (ROOTPATHS and DATAPATHS, Section 7) on a copy-on-write clone.
type Maintained interface {
	Structure
	CloneCOW(frontier storage.PageID) Maintained
	InsertSubtree(store *xmldb.Store, sub *xmldb.Node) error
	DeleteSubtree(store *xmldb.Store, sub *xmldb.Node) error
	TakeRetired() []storage.PageID
	TakeFresh() []storage.PageID
}

// Site is where a structure is built or reopened: the pool its trees live
// in, the store it indexes (nil when reopening), the shared dictionary and
// path table, and the ROOTPATHS/DATAPATHS options.
type Site struct {
	Pool  *storage.Pool
	Store *xmldb.Store
	Dict  *pathdict.Dict
	Ptab  *pathdict.PathTable
	Opts  PathsOptions
}

// family is the one table of the index family, indexed by Kind: the
// paper's name, how a member is built at a site, and how it is reopened
// from the catalog record its AppendRecord wrote. A nil open marks the one
// member that is not persisted: the containment index's region table is
// derived wholly from the store, so it is rebuilt on demand.
var family = [NumKinds]struct {
	name  string
	build func(Site) (any, error)
	open  func(*CatReader, Site) Structure
}{
	KindRootPaths: {"ROOTPATHS", func(s Site) (any, error) { return BuildPaths(false, s) },
		func(r *CatReader, s Site) Structure { return openPaths(false, r, s) }},
	KindDataPaths: {"DATAPATHS", func(s Site) (any, error) { return BuildPaths(true, s) },
		func(r *CatReader, s Site) Structure { return openPaths(true, r, s) }},
	KindEdge:        {"Edge", func(s Site) (any, error) { return BuildEdge(s.Pool, s.Store, s.Dict) }, openEdge},
	KindDataGuide:   {"DataGuide", func(s Site) (any, error) { return BuildDataGuide(s.Pool, s.Store, s.Dict) }, openDataGuide},
	KindIndexFabric: {"IndexFabric", func(s Site) (any, error) { return BuildIndexFabric(s.Pool, s.Store, s.Dict) }, openIndexFabric},
	KindASR:         {"ASR", func(s Site) (any, error) { return BuildASR(s.Pool, s.Store, s.Dict) }, openASR},
	KindJoinIndex:   {"JoinIndex", func(s Site) (any, error) { return BuildJoinIndex(s.Pool, s.Store, s.Dict) }, openJoinIndex},
	KindXRel:        {"XRel", func(s Site) (any, error) { return BuildXRel(s.Pool, s.Store, s.Dict) }, openXRel},
	KindContainment: {"Containment", func(s Site) (any, error) { return containment.Build(s.Pool, s.Store, s.Dict) }, nil},
}

func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return "unknown"
	}
	return family[k].name
}

// PersistedKinds lists, in kind order, the members that have a catalog
// record and so survive a reopen — the paper's family.
func PersistedKinds() []Kind {
	var out []Kind
	for k := range family {
		if family[k].open != nil {
			out = append(out, Kind(k))
		}
	}
	return out
}

// Build constructs member k at the site: a Structure, or for the
// unpersisted containment index a *containment.Index.
func Build(k Kind, s Site) (any, error) {
	if k < 0 || k >= NumKinds {
		return nil, fmt.Errorf("index: unknown index kind %d", k)
	}
	return family[k].build(s)
}

// Open reconstitutes persisted member k from its catalog record; check
// r.Err before using the result.
func Open(k Kind, r *CatReader, s Site) Structure { return family[k].open(r, s) }

// Space summarises the footprint of an index structure.
type Space struct {
	Kind    Kind
	Name    string
	Bytes   int64
	Pages   int64
	Entries int64
	Trees   int // number of B+-trees ("tables"); 1 for the unified indices
}

func treeSpace(k Kind, trees ...*btree.Tree) Space {
	s := Space{Kind: k, Name: k.String(), Trees: len(trees)}
	for _, t := range trees {
		st := t.Stats()
		s.Bytes += st.Bytes
		s.Pages += st.Pages
		s.Entries += st.Entries
	}
	return s
}

func walkTrees(fn func(storage.PageID) error, trees ...*btree.Tree) error {
	for _, t := range trees {
		if err := t.Walk(fn); err != nil {
			return err
		}
	}
	return nil
}

// bulk builds one tree from unsorted entries, sorted by key — stably, so
// equal keys keep emission order.
func bulk(pool *storage.Pool, name string, entries []btree.Entry) (*btree.Tree, error) {
	slices.SortStableFunc(entries, func(a, b btree.Entry) int { return bytes.Compare(a.Key, b.Key) })
	return btree.BulkLoad(pool, name, entries)
}
