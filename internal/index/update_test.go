package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/btree"
	"repro/internal/pathdict"
	"repro/internal/storage"
	"repro/internal/xmldb"
)

// treeEntries dumps all (key, value) pairs of a B+-tree.
func treeEntries(t *testing.T, tr *btree.Tree) []btree.Entry {
	t.Helper()
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []btree.Entry
	for ; it.Valid(); it.Next() {
		out = append(out, btree.Entry{
			Key: append([]byte(nil), it.Key()...),
			Val: append([]byte(nil), it.ValueRef()...),
		})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// entriesEqual compares index contents as multisets: duplicate keys with
// distinct values may legitimately appear in either order.
func entriesEqual(a, b []btree.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	norm := func(es []btree.Entry) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = string(e.Key) + "\x00" + string(e.Val)
		}
		sort.Strings(out)
		return out
	}
	na, nb := norm(a), norm(b)
	for i := range na {
		if na[i] != nb[i] {
			return false
		}
	}
	return true
}

// TestInsertSubtreeMatchesRebuild is the core maintenance invariant: after
// attaching a subtree and updating incrementally, the index contents equal
// a from-scratch build over the mutated store.
func TestInsertSubtreeMatchesRebuild(t *testing.T) {
	f := newFixture(t)
	rp, err := BuildPaths(false, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := BuildPaths(true, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}

	// The paper's Section 7 example: add an author to the existing book.
	allauthors := f.store.NodeByID(5)
	if allauthors == nil || allauthors.Label != "allauthors" {
		t.Fatalf("fixture drift: node 5 = %+v", allauthors)
	}
	sub := xmldb.Elem("author", xmldb.Text("fn", "mary"), xmldb.Text("ln", "shelley"))
	if err := f.store.AttachSubtree(allauthors, sub); err != nil {
		t.Fatal(err)
	}
	if err := rp.InsertSubtree(f.store, sub); err != nil {
		t.Fatal(err)
	}
	if err := dp.InsertSubtree(f.store, sub); err != nil {
		t.Fatal(err)
	}

	// Rebuild both indices from the mutated store and compare contents.
	pool2 := storage.NewPool(storage.NewDisk(), 16<<20)
	rp2, err := BuildPaths(false, f.site(pool2, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	dp2, err := BuildPaths(true, f.site(pool2, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(treeEntries(t, rp.Tree()), treeEntries(t, rp2.Tree())) {
		t.Fatalf("ROOTPATHS after incremental insert differs from rebuild")
	}
	if !entriesEqual(treeEntries(t, dp.Tree()), treeEntries(t, dp2.Tree())) {
		t.Fatalf("DATAPATHS after incremental insert differs from rebuild")
	}

	// The new author is immediately queryable.
	rows, err := rp.Probe(new(Scratch), 0, true, "mary", f.syms(t, "author", "fn"), func(pathdict.Path, []int64) error { return nil })
	if err != nil || rows != 1 {
		t.Fatalf("new author probe rows=%d err=%v", rows, err)
	}
	rows, err = dp.Probe(new(Scratch), 1, true, "shelley", f.syms(t, "ln"), func(pathdict.Path, []int64) error { return nil })
	if err != nil || rows != 1 {
		t.Fatalf("bound probe for new author rows=%d err=%v", rows, err)
	}
}

func TestDeleteSubtreeMatchesRebuild(t *testing.T) {
	f := newFixture(t)
	rp, err := BuildPaths(false, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := BuildPaths(true, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}

	// Delete the first author (id 6) entirely.
	author := f.store.NodeByID(6)
	if author == nil || author.Label != "author" {
		t.Fatalf("fixture drift: node 6 = %+v", author)
	}
	if err := rp.DeleteSubtree(f.store, author); err != nil {
		t.Fatal(err)
	}
	if err := dp.DeleteSubtree(f.store, author); err != nil {
		t.Fatal(err)
	}
	if err := f.store.DetachSubtree(author); err != nil {
		t.Fatal(err)
	}

	pool2 := storage.NewPool(storage.NewDisk(), 16<<20)
	rp2, err := BuildPaths(false, f.site(pool2, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	dp2, err := BuildPaths(true, f.site(pool2, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(treeEntries(t, rp.Tree()), treeEntries(t, rp2.Tree())) {
		t.Fatalf("ROOTPATHS after incremental delete differs from rebuild")
	}
	if !entriesEqual(treeEntries(t, dp.Tree()), treeEntries(t, dp2.Tree())) {
		t.Fatalf("DATAPATHS after incremental delete differs from rebuild")
	}

	// jane/poe (under the deleted author) is gone; jane under the third
	// author remains.
	var remaining int
	_, err = rp.Probe(new(Scratch), 0, true, "jane", f.syms(t, "author", "fn"), func(_ pathdict.Path, ids []int64) error {
		remaining++
		return nil
	})
	if err != nil || remaining != 1 {
		t.Fatalf("after delete: jane rows=%d err=%v", remaining, err)
	}
}

func TestDeleteSubtreeMissingRows(t *testing.T) {
	f := newFixture(t)
	rp, err := BuildPaths(false, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	author := f.store.NodeByID(6)
	if err := rp.DeleteSubtree(f.store, author); err != nil {
		t.Fatal(err)
	}
	// Deleting again reports the missing rows.
	if err := rp.DeleteSubtree(f.store, author); err == nil {
		t.Fatalf("double delete: want error")
	}
}

// TestRandomUpdateChurn applies random attach/detach cycles and checks the
// incremental index equals a rebuild after every step.
func TestRandomUpdateChurn(t *testing.T) {
	f := newFixture(t)
	rp, err := BuildPaths(false, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := BuildPaths(true, f.site(f.pool, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var attached []*xmldb.Node
	for step := 0; step < 30; step++ {
		if len(attached) > 0 && rng.Intn(2) == 0 {
			// Detach a random previously attached subtree; any attached
			// subtrees nested inside it go with it.
			i := rng.Intn(len(attached))
			sub := attached[i]
			inSub := map[*xmldb.Node]bool{}
			var mark func(n *xmldb.Node)
			mark = func(n *xmldb.Node) {
				inSub[n] = true
				for _, c := range n.Children {
					mark(c)
				}
			}
			mark(sub)
			kept := attached[:0]
			for _, n := range attached {
				if !inSub[n] {
					kept = append(kept, n)
				}
			}
			attached = kept
			if err := rp.DeleteSubtree(f.store, sub); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			if err := dp.DeleteSubtree(f.store, sub); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			if err := f.store.DetachSubtree(sub); err != nil {
				t.Fatalf("step %d detach: %v", step, err)
			}
		} else {
			parent := f.store.NodeByID(1) // the book
			if len(attached) > 0 && rng.Intn(3) == 0 {
				parent = attached[rng.Intn(len(attached))]
			}
			sub := xmldb.Elem(fmt.Sprintf("extra%d", rng.Intn(3)),
				xmldb.Text("note", fmt.Sprintf("v%d", rng.Intn(4))))
			if err := f.store.AttachSubtree(parent, sub); err != nil {
				t.Fatalf("step %d attach: %v", step, err)
			}
			if err := rp.InsertSubtree(f.store, sub); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			if err := dp.InsertSubtree(f.store, sub); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			attached = append(attached, sub)
		}
	}
	pool2 := storage.NewPool(storage.NewDisk(), 32<<20)
	rp2, err := BuildPaths(false, f.site(pool2, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	dp2, err := BuildPaths(true, f.site(pool2, PathsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(treeEntries(t, rp.Tree()), treeEntries(t, rp2.Tree())) {
		t.Fatalf("ROOTPATHS diverged after churn")
	}
	if !entriesEqual(treeEntries(t, dp.Tree()), treeEntries(t, dp2.Tree())) {
		t.Fatalf("DATAPATHS diverged after churn")
	}
}
