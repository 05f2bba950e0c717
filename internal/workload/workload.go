// Package workload defines the paper's query workload (Figures 7, 8 and
// 10): single-path queries Q1–Q3 with increasing result cardinality on both
// datasets, branching twig queries Q4x–Q11x with varying branch counts,
// selectivities and branch-point depths, and the recursive branching
// queries Q12x–Q15x whose // branch point matches one concrete path per
// XMark region.
//
// The value constants come from the planted selectivities of
// internal/datagen; one deviation from the paper is listed in PAPER.md
// ("Deviations"): location values use the single spelling "United States".
package workload

import "repro/internal/datagen"

// Group classifies queries the way Figure 10 does.
type Group string

const (
	// GroupSinglePath is Q1–Q3: one branch, selectivity ladder.
	GroupSinglePath Group = "single-path"
	// GroupSelective is Q4x/Q5x: 2–3 selective branches, high branch point.
	GroupSelective Group = "twig-selective"
	// GroupMixed is Q6x/Q7x: selective + unselective branches.
	GroupMixed Group = "twig-mixed"
	// GroupUnselective is Q8x/Q9x: unselective branches.
	GroupUnselective Group = "twig-unselective"
	// GroupLowBranch is Q10x/Q11x: branch point close to the leaves,
	// one selective and otherwise unselective branches (the INL case).
	GroupLowBranch Group = "twig-low-branch"
	// GroupRecursive is Q12x–Q15x: // as branch point (six concrete
	// region paths).
	GroupRecursive Group = "twig-recursive"
)

// Query is one workload entry.
type Query struct {
	ID        string
	XPath     string
	Dataset   string // "xmark" or "dblp"
	Group     Group
	Branches  int  // number of root-to-leaf branches in the twig
	Recursive bool // contains //
}

// XMark returns Q1x–Q15x.
func XMark() []Query {
	return []Query{
		{ID: "Q1x", Dataset: "xmark", Group: GroupSinglePath, Branches: 1,
			XPath: `/site/regions/namerica/item/quantity[. = '` + datagen.QuantityRare + `']`},
		{ID: "Q2x", Dataset: "xmark", Group: GroupSinglePath, Branches: 1,
			XPath: `/site/regions/namerica/item/quantity[. = '` + datagen.QuantityMid + `']`},
		{ID: "Q3x", Dataset: "xmark", Group: GroupSinglePath, Branches: 1,
			XPath: `/site/regions/namerica/item/quantity[. = '` + datagen.QuantityCommon + `']`},

		{ID: "Q4x", Dataset: "xmark", Group: GroupSelective, Branches: 2,
			XPath: `/site[people/person/profile/@income = '` + datagen.IncomeRare + `']` +
				`/open_auctions/open_auction[@increase = '` + datagen.IncreaseRare + `']`},
		{ID: "Q5x", Dataset: "xmark", Group: GroupSelective, Branches: 3,
			XPath: `/site[people/person/profile/@income = '` + datagen.IncomeRare + `']` +
				`[people/person/name = '` + datagen.PersonRareName + `']` +
				`/open_auctions/open_auction[@increase = '` + datagen.IncreaseRare + `']`},

		{ID: "Q6x", Dataset: "xmark", Group: GroupMixed, Branches: 2,
			XPath: `/site[people/person/profile/@income = '` + datagen.IncomeCommon + `']` +
				`/open_auctions/open_auction[@increase = '` + datagen.IncreaseRare + `']`},
		{ID: "Q7x", Dataset: "xmark", Group: GroupMixed, Branches: 3,
			XPath: `/site[people/person/profile/@income = '` + datagen.IncomeCommon + `']` +
				`[regions/namerica/item/location = '` + datagen.LocationCommon + `']` +
				`/open_auctions/open_auction[@increase = '` + datagen.IncreaseRare + `']`},

		{ID: "Q8x", Dataset: "xmark", Group: GroupUnselective, Branches: 2,
			XPath: `/site[people/person/profile/@income = '` + datagen.IncomeCommon + `']` +
				`/open_auctions/open_auction[@increase = '` + datagen.IncreaseCommon + `']`},
		{ID: "Q9x", Dataset: "xmark", Group: GroupUnselective, Branches: 3,
			XPath: `/site[people/person/profile/@income = '` + datagen.IncomeCommon + `']` +
				`[regions/namerica/item/location = '` + datagen.LocationCommon + `']` +
				`/open_auctions/open_auction[@increase = '` + datagen.IncreaseCommon + `']`},

		{ID: "Q10x", Dataset: "xmark", Group: GroupLowBranch, Branches: 2,
			XPath: `/site/open_auctions/open_auction` +
				`[annotation/author/@person = '` + datagen.RarePerson + `']/time`},
		{ID: "Q11x", Dataset: "xmark", Group: GroupLowBranch, Branches: 3,
			XPath: `/site/open_auctions/open_auction` +
				`[annotation/author/@person = '` + datagen.RarePerson + `']` +
				`[bidder/@increase = '` + datagen.IncreaseCommon + `']/time`},

		{ID: "Q12x", Dataset: "xmark", Group: GroupRecursive, Branches: 2, Recursive: true,
			XPath: `/site//item[incategory/category = '` + datagen.RareCategory + `']/mailbox/mail/date`},
		{ID: "Q13x", Dataset: "xmark", Group: GroupRecursive, Branches: 3, Recursive: true,
			XPath: `/site//item[incategory/category = '` + datagen.RareCategory + `']` +
				`[mailbox/mail/date]/mailbox/mail/to`},
		{ID: "Q14x", Dataset: "xmark", Group: GroupRecursive, Branches: 2, Recursive: true,
			XPath: `/site//item[quantity = '` + datagen.QuantityMid + `']` +
				`[location = '` + datagen.LocationCommon + `']`},
		{ID: "Q15x", Dataset: "xmark", Group: GroupRecursive, Branches: 3, Recursive: true,
			XPath: `/site//item[quantity = '` + datagen.QuantityMid + `']` +
				`[location = '` + datagen.LocationCommon + `']/mailbox/mail/to`},
	}
}

// DBLP returns Q1d–Q3d.
func DBLP() []Query {
	return []Query{
		{ID: "Q1d", Dataset: "dblp", Group: GroupSinglePath, Branches: 1,
			XPath: `/dblp/inproceedings/year[. = '` + datagen.YearRare + `']`},
		{ID: "Q2d", Dataset: "dblp", Group: GroupSinglePath, Branches: 1,
			XPath: `/dblp/inproceedings/year[. = '` + datagen.YearMid + `']`},
		{ID: "Q3d", Dataset: "dblp", Group: GroupSinglePath, Branches: 1,
			XPath: `/dblp/inproceedings/year[. = '` + datagen.YearCommon + `']`},
	}
}

// All returns the full workload.
func All() []Query { return append(XMark(), DBLP()...) }

// ByID returns the query with the given id, or false.
func ByID(id string) (Query, bool) {
	for _, q := range All() {
		if q.ID == id {
			return q, true
		}
	}
	return Query{}, false
}

// ByGroup filters the XMark workload by group.
func ByGroup(g Group) []Query {
	var out []Query
	for _, q := range All() {
		if q.Group == g {
			out = append(out, q)
		}
	}
	return out
}
