package plan

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/xpath"
)

// Explain renders the plan Execute would run for the pattern under the
// given strategy: the physical-operator tree with the cost model's
// estimated cardinality per operator. After execution, the same tree (via
// ExecStats.Plan and Tree.Render) also carries every operator's actual
// cardinality — estimated vs. actual is the planner's report card.
func Explain(env *Env, strat Strategy, pat *xpath.Pattern) (string, error) {
	t, err := Build(env, strat, pat)
	if err != nil {
		return "", err
	}
	return t.Render(), nil
}

// ExplainChosen renders the cost-based planner's deliberation for the
// pattern: every candidate strategy with its estimated plan cost, followed
// by the chosen tree.
func ExplainChosen(env *Env, pat *xpath.Pattern) (string, Strategy, error) {
	best, cands, err := Choose(env, pat)
	if err != nil {
		return "", 0, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "planner: %d candidate plan(s)", len(cands))
	for _, c := range cands {
		if c.Err != nil {
			fmt.Fprintf(&b, "  [%s unavailable: %v]", c.Strategy, c.Err)
			continue
		}
		marker := ""
		if c.Strategy == best.Strategy {
			marker = "*"
		}
		fmt.Fprintf(&b, "  %s%s=%.0f", marker, c.Strategy, c.Cost)
	}
	b.WriteString("\n")
	b.WriteString(best.Render())
	return b.String(), best.Strategy, nil
}

// Render draws the operator tree with per-node estimated (and, once the
// tree has executed, actual) cardinalities.
func (t *Tree) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy %s, %d branch(es), output %s, est cost %.0f\n",
		t.Strategy, t.Branches, t.Pattern.Output.Label, t.EstCost)
	DrawTree(&b, t.Root, func(c *Node) string {
		return OpLine(c.Kind.String(), c.Detail, c.EstRows, c.ActRows, t.Executed, t.Traced,
			time.Duration(c.ElapsedNS), time.Duration(c.SelfNS), c.Reads)
	}, func(c *Node) []*Node { return c.Children })
	return b.String()
}

// OpLine is one operator's line of a rendered plan: the operator and its
// detail, the estimated rows and — once executed — the actual rows (act < 0:
// the operator never ran), plus inclusive and self wall time and attributed
// device reads when the run was traced. Tree.Render and the public plan
// tree both print through it, so EXPLAIN and EXPLAIN ANALYZE cannot drift
// apart.
func OpLine(op, detail string, est, act int64, executed, traced bool, elapsed, self time.Duration, reads int64) string {
	line := op
	if detail != "" {
		line += " " + detail
	}
	switch {
	case executed && act >= 0 && traced:
		line += fmt.Sprintf("  (est=%d rows, act=%d, time=%s, self=%s",
			est, act, elapsed.Round(time.Microsecond), self.Round(time.Microsecond))
		if reads > 0 {
			line += fmt.Sprintf(", reads=%d", reads)
		}
		return line + ")"
	case executed && act >= 0:
		return line + fmt.Sprintf("  (est=%d rows, act=%d)", est, act)
	case executed:
		return line + fmt.Sprintf("  (est=%d rows, not run)", est)
	default:
		return line + fmt.Sprintf("  (est=%d rows)", est)
	}
}

// DrawTree renders a tree with box-drawing connectors: label produces a
// node's line, kids its children. Shared by Tree.Render and the public
// Result.Plan renderer, so the two cannot drift apart.
func DrawTree[T any](b *strings.Builder, root T, label func(T) string, kids func(T) []T) {
	var rec func(n T, prefix, childPrefix string)
	rec = func(n T, prefix, childPrefix string) {
		b.WriteString(prefix)
		b.WriteString(label(n))
		b.WriteString("\n")
		children := kids(n)
		for i, c := range children {
			if i == len(children)-1 {
				rec(c, childPrefix+"└─ ", childPrefix+"   ")
			} else {
				rec(c, childPrefix+"├─ ", childPrefix+"│  ")
			}
		}
	}
	rec(root, "", "")
}
