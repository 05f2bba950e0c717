// Auctionwatch: the paper's motivating XMark scenario. Loads the synthetic
// auction site, then answers the kinds of twig questions the paper's
// workload is built from — including the index-nested-loop case (a very
// selective branch plus an unselective one) and a recursive // branch point
// that spans all six regions.
package main

import (
	"fmt"
	"log"
	"strings"

	twigdb "repro"
	"repro/internal/datagen"
	"repro/internal/xmldb"
)

func main() {
	// Generate the synthetic XMark site and load it through the public
	// XML path (WriteXML -> LoadXML), as an external user would.
	doc := datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 30})
	var xml strings.Builder
	if err := xmldb.WriteXML(&xml, doc.Root); err != nil {
		log.Fatal(err)
	}

	db := twigdb.MustOpen(nil)
	if err := db.LoadXMLString(xml.String()); err != nil {
		log.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auction site loaded: %d nodes\n\n", db.NodeCount())

	// Who is selling in North America with quantity 2?
	report(db, `/site/regions/namerica/item[quantity='`+datagen.QuantityMid+`']/name`)

	// The one person with the planted income, and their auctions-by-value
	// twig (paper Q4x shape).
	report(db, `/site[people/person/profile/@income = '`+datagen.IncomeRare+`']`+
		`/open_auctions/open_auction[@increase = '`+datagen.IncreaseRare+`']`)

	// Low branch point + unselective output branch: watch DP switch to an
	// index-nested-loop join (paper Q10x shape).
	res := report(db, `/site/open_auctions/open_auction`+
		`[annotation/author/@person = '`+datagen.RarePerson+`']/time`)
	if res.Stats.UsedINL {
		fmt.Printf("  -> DATAPATHS used index-nested-loop: %d bound probes instead of scanning every time element\n\n",
			res.Stats.INLProbes)
	}

	// Recursive branch point: //item spans all six region paths, still one
	// index lookup per branch for ROOTPATHS/DATAPATHS.
	report(db, `/site//item[incategory/category = '`+datagen.RareCategory+`']/mailbox/mail/date`)
}

func report(db *twigdb.DB, q string) *twigdb.Result {
	res, err := db.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	nodes, err := res.Nodes()
	if err != nil {
		log.Fatal(err)
	}
	for i, n := range nodes {
		if i >= 3 {
			fmt.Printf("  ... and %d more\n", res.Count()-3)
			break
		}
		fmt.Printf("  #%d %s", n.ID, n.Path)
		if n.Value != "" {
			fmt.Printf(" = %q", n.Value)
		}
		fmt.Println()
	}
	fmt.Println()
	return res
}
