package twigdb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestDocsPointAtThingsThatExist keeps the prose honest: every `make
// <target>` that README.md, PAPER.md or docs/*.md show in code markup must
// be a Makefile target, every repo-relative path they show must exist, and
// every *.md file a Go comment sends the reader to must exist. Deleting a
// target or a file without chasing its mentions fails here, not in a
// reader's terminal.
func TestDocsPointAtThingsThatExist(t *testing.T) {
	targets := makeTargets(t)
	files := repoFiles(t)
	exists := func(p string) bool {
		p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
		p = goQualifier.ReplaceAllString(p, "") // `internal/obs.Histogram` names the package directory
		for _, f := range files {
			if ok, _ := path.Match(p, f); ok {
				return true
			}
			if !strings.Contains(p, "/") {
				if ok, _ := path.Match(p, path.Base(f)); ok {
					return true
				}
			}
		}
		return false
	}
	topLevel := func(p string) bool {
		first, _, _ := strings.Cut(strings.TrimPrefix(p, "./"), "/")
		_, err := os.Stat(first)
		return first != "" && first != "." && first != ".." && err == nil
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md", "PAPER.md"}, docs...) {
		for _, span := range codeSpans(t, doc) {
			tokens := strings.Fields(span)
			if len(tokens) >= 2 && tokens[0] == "make" && makeTarget.MatchString(tokens[1]) && !targets[tokens[1]] {
				t.Errorf("%s: `%s`: the Makefile has no target %q", doc, span, tokens[1])
			}
			for _, tok := range tokens {
				if !pathToken.MatchString(tok) {
					continue
				}
				// A token with a slash is a path when it starts at a
				// top-level entry of the repo; a bare file name only when
				// it is the whole span (`A.json` inside a command line is
				// an argument, not a pointer).
				isPath := strings.Contains(tok, "/") && topLevel(tok) ||
					len(tokens) == 1 && fileExt.MatchString(tok)
				if isPath && !exists(tok) {
					t.Errorf("%s: `%s`: no such file or directory in the repository", doc, tok)
				}
			}
		}
	}

	for _, f := range files {
		if !strings.HasSuffix(f, ".go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			_, comment, ok := strings.Cut(line, "//")
			if !ok {
				continue
			}
			for _, md := range mdRef.FindAllString(comment, -1) {
				if !exists(md) {
					t.Errorf("%s: comment points at %s, which does not exist", f, md)
				}
			}
		}
	}
}

// TestDocsNameDeclaredGo keeps the prose's Go names honest: every code span
// of README.md, PAPER.md or docs/*.md that is a qualified Go name —
// `pkg.Name` or `pkg.Name.member`, Name capitalised, possibly called with
// arguments — must resolve to a declaration in internal/<pkg> (twigdb is
// the root package): a type, func, var or const, and for .member a field or
// method of Name. Spans whose pkg is not one of the module's (`errors.Is`)
// are skipped. Deleting or renaming a declaration without chasing its
// mentions fails here.
func TestDocsNameDeclaredGo(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{} // package directory → declared names
	checked := 0
	for _, doc := range append([]string{"README.md", "PAPER.md"}, docs...) {
		for _, span := range codeSpans(t, doc) {
			m := goName.FindStringSubmatch(span)
			if m == nil {
				continue
			}
			dir := filepath.Join("internal", m[1])
			if m[1] == "twigdb" {
				dir = "."
			}
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				continue
			}
			if decls[dir] == nil {
				decls[dir] = declaredNames(t, dir)
			}
			if !decls[dir][m[2]] {
				t.Errorf("%s: `%s`: package %s declares no %s", doc, span, dir, m[2])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no code span named a Go declaration: the span pattern no longer matches the docs")
	}
}

// declaredNames returns the package-level names the non-test Go files of
// dir declare, plus Type.member for every field, interface method and
// method of a declared type.
func declaredNames(t *testing.T, dir string) map[string]bool {
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, notTest, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
					} else {
						names[typeName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								names[n.Name] = true
							}
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
							var members []*ast.Field
							switch ty := spec.Type.(type) {
							case *ast.StructType:
								members = ty.Fields.List
							case *ast.InterfaceType:
								members = ty.Methods.List
							}
							for _, field := range members {
								for _, n := range field.Names {
									names[spec.Name.Name+"."+n.Name] = true
								}
								if field.Names == nil { // embedded: named by its type
									names[spec.Name.Name+"."+typeName(field.Type)] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return names
}

// typeName is the bare name of a receiver or embedded type expression:
// *T, T[P], pkg.T all name T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// TestPlannerDocStrategyTable checks docs/PLANNER.md's strategy table
// against plan's descriptor table: one row per strategy, in order, naming
// the strategy and the index kinds it requires.
func TestPlannerDocStrategyTable(t *testing.T) {
	src, err := os.ReadFile("docs/PLANNER.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(src), "| strategy | access method | requires |")
	if !ok {
		t.Fatal("docs/PLANNER.md has no strategy table")
	}
	var rows [][]string
	for _, line := range strings.Split(table, "\n")[2:] { // rest of the header, separator
		if !strings.HasPrefix(line, "|") {
			break
		}
		rows = append(rows, strings.Split(strings.Trim(line, "|"), "|"))
	}
	if len(rows) != int(plan.NumStrategies) {
		t.Fatalf("strategy table has %d rows, plan has %d strategies", len(rows), plan.NumStrategies)
	}
	for i, row := range rows {
		s := plan.Strategy(i)
		var requires []string
		for _, k := range s.Requires() {
			requires = append(requires, k.String())
		}
		if got := strings.Trim(row[0], " `"); got != s.String() {
			t.Errorf("row %d names %q, strategy %d is %v", i, got, i, s)
		}
		if got, want := strings.TrimSpace(row[2]), strings.Join(requires, ", "); got != want {
			t.Errorf("%v: the doc says it requires %q, plan says %q", s, got, want)
		}
	}
}

var (
	makeRule   = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	makeTarget = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	pathToken  = regexp.MustCompile(`^[A-Za-z0-9_.*/-]+$`)
	fileExt    = regexp.MustCompile(`\.(go|md|json|yml|sh|mod)$`)
	mdRef      = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b`)
	inlineCode = regexp.MustCompile("`([^`]+)`")
	// goQualifier is the .Identifier that turns a package path into a Go name.
	goQualifier = regexp.MustCompile(`\.[A-Z][A-Za-z0-9]*$`)
	// goName is a whole code span naming a Go declaration: pkg.Name or
	// pkg.Name.member, optionally called. Name is capitalised, so metric
	// names such as storage.wal_bytes_per_commit do not match.
	goName = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)(?:\(.*\))?$`)
)

// makeTargets returns the rule names of the Makefile.
func makeTargets(t *testing.T) map[string]bool {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(src), -1) {
		targets[m[1]] = true
	}
	return targets
}

// repoFiles lists every file and directory of the checkout, slash-separated
// and relative to the root, without descending into .git or the benchmark's
// build output.
func repoFiles(t *testing.T) []string {
	var out []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if p == "." {
			return nil
		}
		out = append(out, filepath.ToSlash(p))
		if p == ".git" || p == ".bench_build" {
			return fs.SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// codeSpans returns the text of every inline code span of a markdown file
// and every line of its fenced code blocks. Inline spans are matched per
// paragraph with the line breaks folded, so a span the prose wrapped
// (`make` at the end of one line, its target on the next) is one span.
func codeSpans(t *testing.T, file string) []string {
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var spans, para []string
	flush := func() {
		for _, m := range inlineCode.FindAllStringSubmatch(strings.Join(para, " "), -1) {
			spans = append(spans, m[1])
		}
		para = para[:0]
	}
	fenced := false
	for _, line := range strings.Split(string(src), "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			flush()
			fenced = !fenced
		case fenced:
			spans = append(spans, line)
		case strings.TrimSpace(line) == "":
			flush()
		default:
			para = append(para, line)
		}
	}
	flush()
	return spans
}

var (
	goTestLine = regexp.MustCompile(`\$\(GO\) test\b(.*)`)
	runFlag    = regexp.MustCompile(`-run '([^']*)'`)
	fuzzFlag   = regexp.MustCompile(`-fuzz (\S+)`)
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
)

// TestMakefileSelectorsMatchTests makes a renamed test loud: every
// alternative of every -run '<regex>' the Makefile passes to go test must
// match a Test or Fuzz function of a package that line is aimed at, and
// every -fuzz <regex> a Fuzz function. go test itself only warns ("no
// tests to run", "no fuzz tests to fuzz") and exits 0, so without this a
// rename silently drops the test from `make fuzz` and CI.
func TestMakefileSelectorsMatchTests(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range goTestLine.FindAllStringSubmatch(string(src), -1) {
		line := strings.ReplaceAll(m[1], "$$", "$") // make's escape for $
		var funcs []string
		for _, arg := range strings.Fields(line) {
			if arg != "." && !strings.HasPrefix(arg, "./") || strings.HasSuffix(arg, "...") {
				continue
			}
			files, err := filepath.Glob(filepath.Join(arg, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				body, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, fn := range testFunc.FindAllStringSubmatch(string(body), -1) {
					funcs = append(funcs, fn[1])
				}
			}
		}
		matches := func(pattern, kind string) bool {
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Errorf("Makefile: go test%s: %v", line, err)
				return true
			}
			for _, fn := range funcs {
				if strings.HasPrefix(fn, kind) && re.MatchString(fn) {
					return true
				}
			}
			return false
		}
		if run := runFlag.FindStringSubmatch(line); run != nil && run[1] != "^$" { // '^$' runs nothing, on purpose
			for _, alt := range strings.Split(run[1], "|") {
				if !matches(alt, "Test") && !matches(alt, "Fuzz") {
					t.Errorf("Makefile: go test%s: -run alternative %q matches no test of its packages", line, alt)
				}
			}
		}
		if fuzz := fuzzFlag.FindStringSubmatch(line); fuzz != nil && !matches(fuzz[1], "Fuzz") {
			t.Errorf("Makefile: go test%s: -fuzz %s matches no fuzz target of its package", line, fuzz[1])
		}
	}
}
