package bench

import (
	"fmt"
	"strings"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// Fig09Space regenerates Figure 9: index space for both datasets.
func Fig09Space(xm, dblp *Dataset) *Table {
	t := &Table{
		Title:  "Figure 9: space (MB) for different indices",
		Header: []string{"data set", "RP", "DP", "Edge", "DG+Edge", "IF+Edge", "ASR", "JI"},
	}
	for _, ds := range []*Dataset{xm, dblp} {
		sizes := map[index.Kind]int64{}
		for _, s := range ds.DB.Spaces() {
			sizes[s.Kind] = s.Bytes
		}
		t.Rows = append(t.Rows, []string{
			ds.Name,
			mb(sizes[index.KindRootPaths]),
			mb(sizes[index.KindDataPaths]),
			mb(sizes[index.KindEdge]),
			mb(sizes[index.KindDataGuide] + sizes[index.KindEdge]),
			mb(sizes[index.KindIndexFabric] + sizes[index.KindEdge]),
			mb(sizes[index.KindASR]),
			mb(sizes[index.KindJoinIndex]),
		})
	}
	t.Notes = append(t.Notes,
		"DG+Edge and IF+Edge include the edge indices their plans require, as in the paper",
		"ROOTPATHS/DATAPATHS sizes are after differential IdList encoding (Section 4.1)")
	return t
}

// Fig11SinglePath regenerates Figure 11(a)/(b): single-path queries with
// increasing result cardinality.
func Fig11SinglePath(ds *Dataset) (*Table, error) {
	var queries []workload.Query
	for _, q := range workload.ByGroup(workload.GroupSinglePath) {
		if (ds.Name == "XMark") == (q.Dataset == "xmark") {
			queries = append(queries, q)
		}
	}
	return queryTable(
		fmt.Sprintf("Figure 11 (%s): single-path queries, increasing selectivity", ds.Name),
		ds, queries, Fig11Strategies)
}

// fig12Baseline is the single-branch baseline of Figure 12(a)-(c): the
// first branch common to the group's queries, as a standalone path query.
func fig12Baseline(group workload.Group) workload.Query {
	income := datagen.IncomeRare
	if group != workload.GroupSelective {
		income = datagen.IncomeCommon
	}
	return workload.Query{
		ID:      "base",
		Dataset: "xmark",
		Group:   group,
		XPath:   `/site/people/person/profile/@income[. = '` + income + `']`,
	}
}

// Fig12Twigs regenerates one panel of Figure 12 (a: selective, b: mixed,
// c: unselective, d: low branch point).
func Fig12Twigs(ds *Dataset, panel string) (*Table, error) {
	var group workload.Group
	var title string
	withBaseline := true
	switch panel {
	case "a":
		group, title = workload.GroupSelective, "Figure 12(a): twig queries with selective branches"
	case "b":
		group, title = workload.GroupMixed, "Figure 12(b): twig queries with selective and unselective branches"
	case "c":
		group, title = workload.GroupUnselective, "Figure 12(c): twig queries with unselective branches"
	case "d":
		group, title = workload.GroupLowBranch, "Figure 12(d): twig queries with low branch points"
		withBaseline = false
	default:
		return nil, fmt.Errorf("bench: unknown Figure 12 panel %q", panel)
	}
	var queries []workload.Query
	if withBaseline {
		queries = append(queries, fig12Baseline(group))
	}
	queries = append(queries, workload.ByGroup(group)...)
	return queryTable(title, ds, queries, Fig11Strategies)
}

// Fig13Recursive regenerates Figure 13: queries with // as branch point,
// against ASR and Join Indices.
func Fig13Recursive(ds *Dataset) (*Table, error) {
	t, err := queryTable(
		"Figure 13: XMark queries having a // as branch point (RP/DP vs ASR/JI)",
		ds, workload.ByGroup(workload.GroupRecursive), Fig13Strategies)
	if err != nil {
		return nil, err
	}
	// Report the relation-access counts that explain the gap.
	for _, q := range workload.ByGroup(workload.GroupRecursive) {
		m, err := Run(ds, q, plan.ASRPlan)
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s via ASR touches %d relations (DP touches 1 unified index)",
			q.ID, m.Stats.RelationsUsed))
	}
	return t, nil
}

// Sec524Recursion regenerates the Section 5.2.4 claim: adding a leading //
// to the twig queries costs RP and DP less than ~5%.
func Sec524Recursion(ds *Dataset) (*Table, error) {
	t := &Table{
		Title:  "Section 5.2.4: leading-// overhead for RP and DP",
		Header: []string{"query", "strategy", "plain ms", "recursive ms", "overhead"},
	}
	for _, q := range workload.ByGroup(workload.GroupSelective) {
		rq := q
		rq.ID = q.ID + "//"
		rq.XPath = "/" + q.XPath // "/site..." -> "//site..."
		for _, s := range []plan.Strategy{plan.RootPathsPlan, plan.DataPathsPlan} {
			plain, err := Run(ds, q, s)
			if err != nil {
				return nil, err
			}
			rec, err := Run(ds, rq, s)
			if err != nil {
				return nil, err
			}
			if plain.Results != rec.Results {
				return nil, fmt.Errorf("bench: %s: recursive variant changed results %d -> %d",
					q.ID, plain.Results, rec.Results)
			}
			over := "n/a"
			if plain.Elapsed > 0 {
				over = fmt.Sprintf("%+.1f%%", 100*(float64(rec.Elapsed)/float64(plain.Elapsed)-1))
			}
			t.Rows = append(t.Rows, []string{q.ID, s.String(), ms(plain.Elapsed), ms(rec.Elapsed), over})
		}
	}
	t.Notes = append(t.Notes, "recursive variant prefixes the query with // (single-rooted data: same answers)")
	return t, nil
}

// Sec525Compression regenerates the Section 5.2.5 space-optimization study:
// differential IdList encoding, SchemaPathId compression, and HeadId
// pruning by workload branch points.
func Sec525Compression(scale int) (*Table, error) {
	t := &Table{
		Title:  "Section 5.2.5: space optimizations (XMark)",
		Header: []string{"variant", "RP MB", "DP MB", "functionality"},
	}
	doc := datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * scale})

	build := func(opts index.PathsOptions) (rp, dp int64, err error) {
		db := engine.New(engine.Config{BufferPoolBytes: 40 << 20, PathsOptions: opts})
		db.AddDocument(doc)
		if err := db.Build(index.KindRootPaths, index.KindDataPaths); err != nil {
			return 0, 0, err
		}
		for _, s := range db.Spaces() {
			switch s.Kind {
			case index.KindRootPaths:
				rp = s.Bytes
			case index.KindDataPaths:
				dp = s.Bytes
			}
		}
		return rp, dp, nil
	}

	rpRaw, dpRaw, err := build(index.PathsOptions{RawIDs: true})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"uncompressed IdLists", mb(rpRaw), mb(dpRaw), "full"})

	rpDelta, dpDelta, err := build(index.PathsOptions{})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"differential IdLists (4.1)", mb(rpDelta), mb(dpDelta), "full (lossless)"})

	rpPID, dpPID, err := build(index.PathsOptions{PathIDKeys: true})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"+ SchemaPathId keys (4.2)", mb(rpPID), mb(dpPID), "no // queries"})

	// HeadId pruning: keep heads whose label is a branch point of some
	// workload query.
	branchLabels := workloadBranchLabels()
	db := engine.New(engine.DefaultConfig())
	db.AddDocument(doc)
	keep := func(id int64) bool {
		n := db.Store().NodeByID(id)
		return n != nil && branchLabels[n.Label]
	}
	pruned := engine.New(engine.Config{
		BufferPoolBytes: 40 << 20,
		PathsOptions:    index.PathsOptions{KeepHead: keep},
	})
	pruned.AddDocument(doc)
	if err := pruned.Build(index.KindDataPaths); err != nil {
		return nil, err
	}
	var dpPruned int64
	for _, s := range pruned.Spaces() {
		if s.Kind == index.KindDataPaths {
			dpPruned = s.Bytes
		}
	}
	t.Rows = append(t.Rows, []string{"+ HeadId pruning (4.3)", "n/a", mb(dpPruned), "no INL off-workload"})
	t.Notes = append(t.Notes,
		fmt.Sprintf("pruning keeps heads labeled %v (workload branch points) plus the virtual root", keys(branchLabels)),
		fmt.Sprintf("differential encoding saves %.0f%% of DATAPATHS vs raw", 100*(1-float64(dpDelta)/float64(dpRaw))))
	return t, nil
}

// workloadBranchLabels returns the labels of the branch-point nodes of the
// full workload (Section 4.3's workload knowledge).
func workloadBranchLabels() map[string]bool {
	out := map[string]bool{}
	for _, q := range workload.All() {
		pat, err := xpath.Parse(q.XPath)
		if err != nil {
			continue
		}
		out[pat.BranchPoint().Label] = true
	}
	return out
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TableCounts reports the relation counts of ASR/JI and the distinct path
// counts (the paper's "902 and 235 tables" comparison).
func TableCounts(xm, dblp *Dataset) *Table {
	t := &Table{
		Title:  "Relation counts: unified indices vs one-table-per-path schemes",
		Header: []string{"data set", "distinct rooted paths", "ASR tables", "JI B+-trees", "RP/DP B+-trees"},
	}
	for _, ds := range []*Dataset{xm, dblp} {
		var asrTables, jiTrees int
		for _, s := range ds.DB.Spaces() {
			switch s.Kind {
			case index.KindASR:
				asrTables = s.Trees
			case index.KindJoinIndex:
				jiTrees = s.Trees
			}
		}
		st := ds.DB.Store().CollectStats()
		t.Rows = append(t.Rows, []string{
			ds.Name, fmt.Sprint(st.DistinctRootSPs), fmt.Sprint(asrTables),
			fmt.Sprint(jiTrees), "1 each",
		})
	}
	return t
}

// AllExperiments runs everything and returns the rendered report; this is
// what cmd/twigbench -exp all prints.
func AllExperiments(scale int) (string, error) {
	xm, err := BuildXMark(scale)
	if err != nil {
		return "", err
	}
	dblp, err := BuildDBLP(scale)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	add := func(t *Table, err error) error {
		if err != nil {
			return err
		}
		b.WriteString(t.String())
		b.WriteString("\n")
		return nil
	}
	if err := add(Fig09Space(xm, dblp), nil); err != nil {
		return "", err
	}
	t, err := Fig11SinglePath(xm)
	if err := add(t, err); err != nil {
		return "", err
	}
	t, err = Fig11SinglePath(dblp)
	if err := add(t, err); err != nil {
		return "", err
	}
	for _, panel := range []string{"a", "b", "c", "d"} {
		t, err = Fig12Twigs(xm, panel)
		if err := add(t, err); err != nil {
			return "", err
		}
	}
	t, err = Fig13Recursive(xm)
	if err := add(t, err); err != nil {
		return "", err
	}
	t, err = Sec524Recursion(xm)
	if err := add(t, err); err != nil {
		return "", err
	}
	t, err = Sec525Compression(scale)
	if err := add(t, err); err != nil {
		return "", err
	}
	if err := add(TableCounts(xm, dblp), nil); err != nil {
		return "", err
	}
	return b.String(), nil
}
