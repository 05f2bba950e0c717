// Quickstart: load a document, build the two paper indices, run the
// paper's running-example twig query (Figure 1), and inspect the matches.
package main

import (
	"fmt"
	"log"
	"os"

	twigdb "repro"
)

const doc = `
<book>
 <title>XML</title>
 <allauthors>
  <author><fn>jane</fn><ln>poe</ln></author>
  <author><fn>john</fn><ln>doe</ln></author>
  <author><fn>jane</fn><ln>doe</ln></author>
 </allauthors>
 <year>2000</year>
 <chapter>
  <title>XML</title>
  <section><head>Origins</head></section>
 </chapter>
</book>`

func main() {
	db := twigdb.MustOpen(nil)
	if err := db.LoadXMLString(doc); err != nil {
		log.Fatal(err)
	}
	if err := db.Build(twigdb.RootPaths, twigdb.DataPaths); err != nil {
		log.Fatal(err)
	}

	// The paper's Figure 1(c) query twig: books titled "XML" with an
	// author named jane doe, at any depth.
	res, err := db.Query(`/book[title='XML']//author[fn='jane' and ln='doe']`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	nodes, err := res.Nodes()
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range nodes {
		fmt.Printf("match #%d at %s:\n", n.ID, n.Path)
		if err := res.WriteXML(os.Stdout, n.ID); err != nil {
			log.Fatal(err)
		}
	}

	// Single-path lookups — one index probe each, including with a
	// leading // (the reverse-schema-path trick).
	for _, q := range []string{
		`/book/title[. = 'XML']`,
		`//author/fn[. = 'jane']`,
		`//section/head`,
	} {
		res, err := db.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
	}

	// Inspect the plan the optimizer chose.
	explain, err := db.Explain(twigdb.Auto, `/book[title='XML']//author[fn='jane']`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("\n", explain)

	// Updates (the paper's Section 7): insert a new author — ROOTPATHS and
	// DATAPATHS are maintained incrementally — then query and remove it.
	allauthors, err := db.Query(`/book/allauthors`)
	if err != nil {
		log.Fatal(err)
	}
	newID, err := db.Insert(allauthors.IDs[0], `<author><fn>mary</fn><ln>shelley</ln></author>`)
	if err != nil {
		log.Fatal(err)
	}
	added, err := db.Query(`//author[fn='mary']`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter insert: %s\n", added)
	if err := db.Delete(newID); err != nil {
		log.Fatal(err)
	}
	gone, err := db.Query(`//author[fn='mary']`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after delete: %s\n", gone)
}
