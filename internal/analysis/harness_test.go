package analysis_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"locshort/internal/analysis"
)

// wantRe extracts the quoted expectations from a want comment; both
// double-quoted and backquoted forms are accepted, as in x/tools
// (backquotes spare the fixture author regexp-escape doubling).
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// expectation is one want regexp, anchored to a file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// runFixture loads the fixture directory as import path `as`, applies the
// analyzer, and matches its diagnostics against `// want "regexp"`
// comments, following the convention of
// golang.org/x/tools/go/analysis/analysistest: every diagnostic must be
// expected by a want comment on its line, and every want comment must be
// matched by a diagnostic. A fixture therefore fails the test in both
// directions — when the analyzer misses a planted violation and when it
// reports something the fixture declares clean. The import path controls
// scope matching: a fixture standing in for internal/graph passes
// "locshort/internal/graph".
func runFixture(t *testing.T, a *analysis.Analyzer, dir, as string) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, as)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.RunAnalyzer(a, pkg)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	wants := collectWants(t, dir)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		ok := false
		for _, w := range wants {
			if filepath.Base(w.file) == filepath.Base(pos.Filename) && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.re)
		}
	}
}

// collectWants parses want comments from every non-test fixture file.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var wants []*expectation
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", path, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				line := fset.Position(c.Pos()).Line
				for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", path, line, expr, err)
					}
					wants = append(wants, &expectation{file: path, line: line, re: re})
				}
			}
		}
	}
	return wants
}
