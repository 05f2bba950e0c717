package main

import (
	"fmt"
	"math/rand"
)

// writerKind is what a workload's writer session commits.
type writerKind int

const (
	noWriter writerKind = iota
	// insertDelete commits one statement at a time against the one big
	// XMark document: DB.Insert of a 7-node listing under a seeded random
	// item, and, once liveListings are live, DB.Delete of the oldest.
	insertDelete
	// zoneUpdate commits DB.Update transactions of four statements against
	// the small zone documents, round-robin.
	zoneUpdate
)

const (
	// liveListings is how many inserted listings commit-durable keeps
	// before every insert is paired with a delete of the oldest.
	liveListings = 200
	// zoneEntries is how many entries a zone keeps before a transaction
	// trades its fourth insert for a delete of the zone's oldest entry.
	zoneEntries = 6
	// coldPoolBytes is twig-cold's frozen buffer pool: 1.5MB against a
	// ~27MB file, fixed once so the warm storage.pool.hit_rate on the seed
	// code sits inside [0.5, 0.95] (it reads ~0.8).
	coldPoolBytes = 1536 << 10
	// durablePoolBytes holds commit-durable's whole file, so its reads
	// never reach the device and the write path is all that is measured.
	durablePoolBytes = 256 << 20
	// durableCheckpointWAL is commit-durable's frozen checkpoint watermark,
	// the engine's default spelled out so a later default cannot move it.
	// Every commit on the seed code rewrites the whole catalog into the WAL
	// (~1.7MB here), so the background checkpointer completes more than ten
	// checkpoints in the timed phase.
	durableCheckpointWAL = 64 << 20
)

// workloadSpec is one workload: the database it builds and the sessions it
// runs against it in a closed loop.
type workloadSpec struct {
	name string
	why  string

	xmarkItems int // datagen ItemsPerRegion
	dblpPapers int // 0 = no DBLP document
	zones      int // small zone documents loaded beside XMark

	fileBacked bool
	allIndexes bool  // BuildAll; otherwise ROOTPATHS + DATAPATHS
	poolBytes  int64 // timed-phase buffer pool; 0 = the 40MB default
	ckptWAL    int64 // CheckpointWALBytes; 0 = the 64MB default

	// A workload's primary operation, which its end-to-end metrics
	// describe, is its writer's commit if it has a writer and its readers'
	// query otherwise.
	readers        int
	writer         writerKind
	reopenPerRound bool // every round starts from a cold pool
	scans          bool // add the long-range scan queries
	dblpQueries    bool
}

var workloads = []*workloadSpec{
	{
		name: "twig-hot",
		why:  "in-memory, everything cached: parser, plan cache, executor, idlist decode and warm btree descents do all the work, the device none",
		// Half the size ISSUE 11 names (160/6000): BuildAll runs three
		// times per run for setup_s and has to fit the driver's time cap.
		xmarkItems: 80, dblpPapers: 3000, allIndexes: true,
		readers: 2, dblpQueries: true,
	},
	{
		name:       "twig-cold",
		why:        "same queries plus range scans on a file 18x the pool: pool misses, CRC checks and file reads dominate, so storage changes show here and not on twig-hot",
		xmarkItems: 320, fileBacked: true, poolBytes: coldPoolBytes,
		readers: 2, reopenPerRound: true, scans: true,
	},
	{
		name:       "commit-durable",
		why:        "one writer, single-statement durable commits into one big document: COW prepare, catalog encode, WAL, fsync, stats, checkpoints; no reads",
		xmarkItems: 160, fileBacked: true, poolBytes: durablePoolBytes, ckptWAL: durableCheckpointWAL,
		writer: insertDelete,
	},
	{
		name:       "mixed-txn",
		why:        "one reader beside one writer of 4-statement transactions on small documents: read and write layers together, every publish emptying the reader's plan cache",
		xmarkItems: 40, zones: 64, fileBacked: true,
		readers: 1, writer: zoneUpdate,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scanQueries are twig-cold's long-range scans: unselective single paths
// whose ROOTPATHS rows span many leaf pages.
var scanQueries = []query{
	{id: "S1", group: "scan", text: `//item/name`},
	{id: "S2", group: "scan", text: `//item/mailbox/mail/date`},
	{id: "S3", group: "scan", text: `//open_auction/bidder`},
	{id: "S4", group: "scan", text: `/site/people/person/name`},
	{id: "S5", group: "scan", text: `/site/open_auctions/open_auction/time`},
}

// Seed streams: every random choice draws from its own generator, so
// adding a draw to one never shifts another. The documents come from
// -data-seed and everything that happens to them — each reader's shuffle
// order, the writer's parents and payloads — from -seed. They are apart
// because the planted selectivities make a query's result size, and so its
// latency, differ by 10% and more from one generated document to the next:
// runs on different seeds would not be comparable, and the driver accepts
// the benchmark only if they are.
const (
	streamXMark = iota + 1
	streamDBLP
	streamReader // + session index
	streamWriter = streamReader + 8
)

func seedFor(seed int64, stream int) int64 { return seed*1000003 + int64(stream) }

func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seedFor(seed, stream)))
}

// inputs is what set-up feeds the engine, made from the data seed alone.
type inputs struct {
	docs     [][]byte // serialized XML documents, in load order (XMark first)
	xmlBytes int64
	queries  []query
}

// generate builds the workload's documents and query list. scaleDiv
// shrinks the datasets (the miniature test run, and the quarter-scale
// commit probe).
func (w *workloadSpec) generate(dataSeed int64, scaleDiv int) inputs {
	var in inputs
	in.docs = append(in.docs, genXMarkXML(max(w.xmarkItems/scaleDiv, 4), seedFor(dataSeed, streamXMark)))
	in.queries = append(in.queries, xmarkQueries()...)
	if w.dblpPapers > 0 {
		in.docs = append(in.docs, genDBLPXML(max(w.dblpPapers/scaleDiv, 50), seedFor(dataSeed, streamDBLP)))
	}
	if w.dblpQueries {
		in.queries = append(in.queries, dblpQueries()...)
	}
	if w.scans {
		in.queries = append(in.queries, scanQueries...)
	}
	for z := 0; z < w.zones; z++ {
		in.docs = append(in.docs, []byte(fmt.Sprintf(`<zone id="z%d"><meta region="r%d"/></zone>`, z, z%6)))
	}
	for _, d := range in.docs {
		in.xmlBytes += int64(len(d))
	}
	return in
}

// listingXML is commit-durable's inserted subtree: 7 element and
// attribute nodes.
func listingXML(n int, rng *rand.Rand) string {
	return fmt.Sprintf(`<listing id="L%d"><seller>person%d</seller><price>%d.%02d</price>`+
		`<currency>USD</currency><note>lot %d</note><date>%02d/%02d/2004</date></listing>`,
		n, rng.Intn(2000), 1+rng.Intn(500), rng.Intn(100), rng.Intn(100000), 1+rng.Intn(12), 1+rng.Intn(28))
}

// entryXML is one statement of a mixed-txn transaction: 4 nodes.
func entryXML(n int, rng *rand.Rand) string {
	return fmt.Sprintf(`<entry id="e%d"><k>key%d</k><v>%d</v></entry>`, n, rng.Intn(1000), rng.Intn(1000000))
}

const (
	listingsQuery = `//listing`
	itemsQuery    = `//item`
	zonesQuery    = `/zone`
	entriesQuery  = `/zone/entry`
)
