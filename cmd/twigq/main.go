// Command twigq loads XML files, builds a chosen set of indices, and
// evaluates twig queries against them, printing matches and the work
// counters.
//
// Usage:
//
//	twigq [-index rp,dp,...] [-strategy auto|rp|dp|...] \
//	      [-show] file.xml... -q "/site//item[quantity='2']"
//
// twigq -h lists every index and strategy name.
//
// With no files, the built-in synthetic XMark dataset is loaded.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	twigdb "repro"
	"repro/internal/datagen"
	"repro/internal/xmldb"
)

var kindByName = map[string]twigdb.IndexKind{
	"rp": twigdb.RootPaths, "dp": twigdb.DataPaths, "edge": twigdb.Edge,
	"dg": twigdb.DataGuide, "if": twigdb.IndexFabric, "asr": twigdb.ASR,
	"ji": twigdb.JoinIndex, "xrel": twigdb.XRel, "sj": twigdb.Containment,
}

var strategyByName = map[string]twigdb.Strategy{
	"auto": twigdb.Auto, "rp": twigdb.StrategyRootPaths,
	"dp": twigdb.StrategyDataPaths, "edge": twigdb.StrategyEdge,
	"dg": twigdb.StrategyDataGuideEdge, "if": twigdb.StrategyFabricEdge,
	"asr": twigdb.StrategyASR, "ji": twigdb.StrategyJoinIndex,
	"xrel": twigdb.StrategyXRel, "sj": twigdb.StrategyStructuralJoin,
	"oracle": twigdb.Oracle,
}

// names lists a flag's accepted values from the map that resolves them, so
// the help text and the error cannot drift from what is accepted.
func names[V any](byName map[string]V) string {
	out := make([]string, 0, len(byName))
	for name := range byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

func main() {
	indexList := flag.String("index", "rp,dp", "comma-separated indices to build ("+names(kindByName)+")")
	strategy := flag.String("strategy", "auto", "evaluation strategy ("+names(strategyByName)+")")
	query := flag.String("q", "", "twig query (required)")
	show := flag.Bool("show", false, "print matched subtrees as XML")
	explain := flag.Bool("explain", false, "print the planned and executed operator trees (est vs act rows; with -strategy auto, also the planner's candidate costs)")
	analyze := flag.Bool("analyze", false, "EXPLAIN ANALYZE: execute with per-operator tracing and print the executed plan (est vs act rows, inclusive/self wall time, attributed device reads)")
	flag.Parse()

	if err := run(*indexList, *strategy, *query, *show, *explain, *analyze, flag.Args()); err != nil {
		switch {
		case errors.Is(err, twigdb.ErrConflict):
			// A conflicted transaction published nothing; re-running it is
			// always safe.
			fmt.Fprintln(os.Stderr, "twigq: write conflict (safe to retry):", err)
		case errors.Is(err, twigdb.ErrReadOnly):
			fmt.Fprintln(os.Stderr, "twigq: database is read-only:", err)
		default:
			fmt.Fprintln(os.Stderr, "twigq:", err)
		}
		os.Exit(1)
	}
}

func run(indexList, strategy, query string, show, explain, analyze bool, files []string) error {
	if query == "" {
		return fmt.Errorf("missing -q query")
	}
	strat, ok := strategyByName[strategy]
	if !ok {
		return fmt.Errorf("unknown strategy %q (want one of %s)", strategy, names(strategyByName))
	}

	db := twigdb.MustOpen(nil)
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "twigq: no files given; loading built-in synthetic XMark dataset")
		var b strings.Builder
		if err := xmldb.WriteXML(&b, datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 20}).Root); err != nil {
			return err
		}
		if err := db.LoadXMLString(b.String()); err != nil {
			return err
		}
	}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return err
		}
		err = db.LoadXML(fh)
		fh.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}

	var kinds []twigdb.IndexKind
	for _, name := range strings.Split(indexList, ",") {
		k, ok := kindByName[strings.TrimSpace(name)]
		if !ok {
			return fmt.Errorf("unknown index %q (want some of %s)", name, names(kindByName))
		}
		kinds = append(kinds, k)
	}
	if err := db.Build(kinds...); err != nil {
		return err
	}

	if explain {
		p, err := db.Explain(strat, query)
		if err != nil {
			return err
		}
		fmt.Print(p)
	}
	var res *twigdb.Result
	var err error
	if analyze {
		res, err = db.ExplainAnalyze(strat, query)
	} else {
		res, err = db.QueryWith(strat, query)
	}
	if err != nil {
		return err
	}
	if explain && res.Plan != nil {
		fmt.Printf("executed plan (strategy %s, est vs act rows):\n%s", res.Strategy, res.Plan.Render())
	}
	if analyze && res.Plan != nil {
		fmt.Printf("explain analyze (strategy %s, total %s):\n%s",
			res.Strategy, res.Plan.Elapsed.Round(time.Microsecond), res.Plan.Render())
	}
	fmt.Println(res)
	nodes, err := res.Nodes()
	if err != nil {
		return err
	}
	for _, n := range nodes {
		fmt.Printf("  #%d %s", n.ID, n.Path)
		if n.Value != "" {
			fmt.Printf(" = %q", n.Value)
		}
		fmt.Println()
		if show {
			if err := res.WriteXML(os.Stdout, n.ID); err != nil {
				return err
			}
		}
	}
	return nil
}
