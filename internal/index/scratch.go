package index

import (
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/pathdict"
)

// Scratch holds the reusable buffers of a probe stream against any member
// of the family: the encoded probe prefix and the B+-tree iterator (the
// embedded PrefixScan — every probe method encodes its fixed columns into
// sc.Prefix and runs the one btree.Tree.ScanPrefix), plus the reversed
// suffix, the decoded forward path and the id list a row callback is handed.
// A caller that keeps one Scratch across probes (the plan executor keeps
// one per evaluator) runs steady-state probes without allocating; the zero
// value is ready to use. Not goroutine-safe, and a row callback must not
// probe through the Scratch that is delivering its row.
type Scratch struct {
	btree.PrefixScan
	rev pathdict.Path
	fwd pathdict.Path
	ids []int64
}

// ErrCorruptEntry is matched (errors.Is) by the error a probe returns when
// an entry read from a page does not decode — a key or value too short for
// its columns: never a panic, never a wrong row.
var ErrCorruptEntry = errors.New("index: corrupt index entry")

func corrupt(err error) error { return fmt.Errorf("%w: %w", ErrCorruptEntry, err) }

// scanTrailingIDs streams the trailing node id of every entry of t under
// sc.Prefix to fn: the probe of every last-id index (Edge, Index Fabric,
// XRel), whose keys end with an id column after the probed columns.
func (sc *Scratch) scanTrailingIDs(t *btree.Tree, fn func(id int64) error) (int, error) {
	return t.ScanPrefix(&sc.PrefixScan, func(key, _ []byte) error {
		if len(key) < len(sc.Prefix)+8 {
			return corrupt(fmt.Errorf("%d-byte key has no id column after a %d-byte prefix", len(key), len(sc.Prefix)))
		}
		id, _, _ := pathdict.DecodeID(key[len(key)-8:])
		return fn(id)
	})
}
