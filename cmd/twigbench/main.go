// Command twigbench regenerates the paper's evaluation tables and figures
// (Section 5) as text tables. Everything else this repository measures —
// twig-query and durable-commit latency, per-layer attribution — comes from
// the one benchmark in benchmark/ (see benchmark/README.md).
//
// Usage:
//
//	twigbench [-scale N] [-exp all|space|fig11|fig12a|fig12b|fig12c|fig12d|fig13|recursion|compress|tables]
//
// The -scale flag multiplies the synthetic dataset sizes (default 1).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	scale := flag.Int("scale", 1, "dataset scale multiplier")
	exp := flag.String("exp", "all", "experiment to run")
	flag.Parse()

	if err := run(*scale, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "twigbench:", err)
		os.Exit(1)
	}
}

func run(scale int, exp string) error {
	if exp == "all" {
		report, err := bench.AllExperiments(scale)
		if err != nil {
			return err
		}
		fmt.Print(report)
		return nil
	}
	if exp == "compress" {
		t, err := bench.Sec525Compression(scale)
		if err != nil {
			return err
		}
		fmt.Print(t.String())
		return nil
	}

	needDBLP := exp == "space" || exp == "fig11" || exp == "tables"
	xm, err := bench.BuildXMark(scale)
	if err != nil {
		return err
	}
	var dblp *bench.Dataset
	if needDBLP {
		if dblp, err = bench.BuildDBLP(scale); err != nil {
			return err
		}
	}

	var t *bench.Table
	switch exp {
	case "space":
		t = bench.Fig09Space(xm, dblp)
	case "tables":
		t = bench.TableCounts(xm, dblp)
	case "fig11":
		if t, err = bench.Fig11SinglePath(xm); err != nil {
			return err
		}
		fmt.Print(t.String())
		t, err = bench.Fig11SinglePath(dblp)
	case "fig12a", "fig12b", "fig12c", "fig12d":
		t, err = bench.Fig12Twigs(xm, exp[len(exp)-1:])
	case "fig13":
		t, err = bench.Fig13Recursive(xm)
	case "recursion":
		t, err = bench.Sec524Recursion(xm)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if err != nil {
		return err
	}
	fmt.Print(t.String())
	return nil
}
