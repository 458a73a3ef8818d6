package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one analysis pass. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the passes port to the real
// framework mechanically if it is ever vendored.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph description shown by `locshortlint -list`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through an analyzer, exactly like
// x/tools' analysis.Pass: syntax, types, and a Report sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report     func(Diagnostic)
	directives map[string][]directive // file name -> sorted by line
}

// Report records a diagnostic unless an escape directive suppresses it.
// The suppression key is the analyzer's escape comment name (e.g.
// "nondeterministic-ok"); pass "" to make the diagnostic unsuppressable.
func (p *Pass) Report(pos token.Pos, escape, format string, args ...any) {
	if escape != "" && p.suppressed(pos, escape) {
		return
	}
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// directive is one //locshort:NAME comment, by position.
type directive struct {
	line int
	name string // text after "locshort:", up to the first space
}

// Prefix starts every recognized control comment.
const Prefix = "//locshort:"

// buildDirectives indexes every //locshort: comment in the package.
func (p *Pass) buildDirectives() {
	p.directives = make(map[string][]directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				d := directive{line: pos.Line, name: name}
				p.directives[pos.Filename] = append(p.directives[pos.Filename], d)
			}
		}
	}
	for _, ds := range p.directives {
		sort.Slice(ds, func(i, j int) bool { return ds[i].line < ds[j].line })
	}
}

// parseDirective extracts NAME from "//locshort:NAME optional reason".
func parseDirective(text string) (string, bool) {
	if !strings.HasPrefix(text, Prefix) {
		return "", false
	}
	rest := strings.TrimPrefix(text, Prefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// suppressed reports whether an escape directive named name covers pos:
// on the same line, on the line directly above, or in the enclosing
// function's doc comment.
func (p *Pass) suppressed(pos token.Pos, name string) bool {
	where := p.Fset.Position(pos)
	for _, d := range p.directives[where.Filename] {
		if d.name != name {
			continue
		}
		if d.line == where.Line || d.line == where.Line-1 {
			return true
		}
	}
	// Function-doc-level escape.
	for _, f := range p.Files {
		if p.Fset.Position(f.Pos()).Filename != where.Filename {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			if pos < fd.Pos() || pos > fd.End() {
				continue
			}
			if hasDirective(fd.Doc, name) {
				return true
			}
		}
	}
	return false
}

// hasDirective reports whether the comment group contains //locshort:name.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if got, ok := parseDirective(c.Text); ok && got == name {
			return true
		}
	}
	return false
}

// FuncHasDirective reports whether fn's doc comment carries the directive.
func FuncHasDirective(fn *ast.FuncDecl, name string) bool {
	return hasDirective(fn.Doc, name)
}

// RunAnalyzer applies a to pkg and returns the diagnostics sorted by
// position.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	pass.buildDirectives()
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %v", a.Name, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// ScopedTo reports whether path falls inside one of the analyzer's scope
// patterns. A pattern matches when it appears in path as a complete
// "/"-delimited segment run, so "locshort/internal/graph" covers both the
// real package and its fixture twin under testdata.
func ScopedTo(path string, scopes []string) bool {
	for _, s := range scopes {
		if path == s || strings.HasSuffix(path, "/"+s) || strings.HasPrefix(path, s+"/") || strings.Contains(path, "/"+s+"/") {
			return true
		}
	}
	return false
}
