// DBLP: bibliography search over the shallow dataset, demonstrating the
// space/functionality trade-offs of Section 4 — the same queries against a
// full build and against the lossy SchemaPathId-compressed build, which
// rejects // queries.
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
	doc := datagen.DBLP(datagen.DBLPConfig{Papers: 800})
	var xml strings.Builder
	if err := xmldb.WriteXML(&xml, doc.Root); err != nil {
		log.Fatal(err)
	}

	full := twigdb.MustOpen(nil)
	compressed := twigdb.MustOpen(&twigdb.Options{CompressSchemaPaths: true})
	for _, db := range []*twigdb.DB{full, compressed} {
		if err := db.LoadXMLString(xml.String()); err != nil {
			log.Fatal(err)
		}
		if err := db.Build(twigdb.RootPaths); err != nil {
			log.Fatal(err)
		}
	}
	report := func(name string, db *twigdb.DB) {
		for _, s := range db.IndexSpaces() {
			fmt.Printf("%-12s ROOTPATHS: %.2f MB, %d entries\n", name, float64(s.Bytes)/(1<<20), s.Entries)
		}
	}
	report("full", full)
	report("compressed", compressed)

	// Exact-path queries work on the full build.
	queries := []string{
		`/dblp/inproceedings/year[. = '` + datagen.YearRare + `']`,
		`/dblp/inproceedings[year = '` + datagen.YearMid + `'][booktitle = 'ICDE']/title`,
		`//inproceedings[author = 'Jane Doe']/title`,
	}
	for _, q := range queries {
		res, err := full.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
		nodes, err := res.Nodes()
		if err != nil {
			log.Fatal(err)
		}
		for i, n := range nodes {
			if i >= 2 {
				fmt.Printf("  ...\n")
				break
			}
			fmt.Printf("  #%d %s = %q\n", n.ID, n.Path, n.Value)
		}
	}

	// The compressed build refuses // queries — the Section 4.2 loss of
	// functionality, surfaced as an explicit error.
	_, err := compressed.Query(`//inproceedings/year`)
	fmt.Printf("\ncompressed build on a // query: %v\n", err)
}
