// Package analysis is the engine under dexvet (cmd/dexvet): a small
// static-analysis framework plus the repo's analyzers, which mechanize
// the invariants that previously lived only in comments and reviewer
// memory — the enterOp/exitOp guard discipline on the dex façade
// (guarddiscipline), determinism of the engine packages (determinism)
// and the 0-alloc contracts on the hot paths (noalloc).
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// vocabulary — Analyzer, Pass, Reportf, `// want` fixtures — but is
// built on the standard library alone: this module has no external
// dependencies and must build offline, so x/tools is not available.
// Porting an analyzer to the real go/analysis API is a mechanical
// translation of its Run function.
//
// Packages are loaded with `go list -deps -export -json`: target
// packages are parsed and type-checked from source, imports are
// satisfied from compiler export data, so every analyzer sees full
// type information without re-implementing a build system.
//
// # Directives
//
// Analyzers and their suppressions are driven by machine-readable
// comments:
//
//	//dexvet:allow <rule> <reason>   suppress one finding; the reason is mandatory
//	//dexvet:noalloc                 function must have no escaping allocation sites
//	//dexvet:mutator                 marks an engine method that mutates engine state
//
// An allow directive suppresses matching diagnostics on its own line,
// on the line directly below it, or — when it appears in a function's
// doc comment — in that whole function. Reasons are enforced: an
// allow without one is itself a finding, as is an unknown rule name,
// and so is an allow that suppresses no finding at all.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one dexvet rule.
type Analyzer struct {
	// Name identifies the rule in diagnostics and in
	// //dexvet:allow comments.
	Name string

	// Doc is the one-paragraph description printed by dexvet -help.
	Doc string

	// Applies reports whether the analyzer has anything to say about
	// the package; Run is only called when it returns true.
	Applies func(pkg *Package) bool

	// Run reports the rule's findings on one package through
	// pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding, after allow-suppression.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// A Pass connects one analyzer run to one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAtf(p.Pkg.Fset.Position(pos), format, args...)
}

// ReportAtf records a finding at an already-resolved position (used by
// noalloc, whose evidence comes from compiler output rather than the
// AST).
func (p *Pass) ReportAtf(pos token.Position, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:  pos,
		Rule: p.Analyzer.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Run applies every applicable analyzer to every package and returns
// the surviving findings (directive errors included) sorted by
// position. It is the single entry point shared by cmd/dexvet and the
// analysistest harness, so fixtures exercise exactly the production
// suppression semantics.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		dirs, errs := parseDirectives(pkg, analyzers)
		out = append(out, errs...)
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if !dirs.allows(d) {
					out = append(out, d)
				}
			}
		}
		out = append(out, dirs.unused()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Msg < b.Msg
	})
	// Nested constructs can make two walks visit one site (a statement
	// inside a map range nested in another map range is order-sensitive
	// with respect to both); one report per site is enough.
	dedup := out[:0]
	for i, d := range out {
		if i == 0 || d != out[i-1] {
			dedup = append(dedup, d)
		}
	}
	return dedup, nil
}

// --- shared AST/type helpers used by several analyzers ---------------------

// RecvTypeName returns the bare name of a method's receiver type ("" for
// plain functions), unwrapping any pointer and generic instantiation.
func RecvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// NamedOf unwraps pointers and aliases down to a *types.Named, or nil.
func NamedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}

// IsType reports whether t (possibly behind pointers) is the named type
// pkgPath.typeName.
func IsType(t types.Type, pkgPath, typeName string) bool {
	n := NamedOf(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	if n.Obj().Name() != typeName {
		return false
	}
	p := n.Obj().Pkg()
	return p != nil && p.Path() == pkgPath
}

// FixturePackage reports whether pkg is an analysistest fixture (lives
// under a testdata directory). Analyzers that normally key on concrete
// repo import paths accept fixture packages by name instead.
func FixturePackage(pkg *Package) bool {
	return strings.Contains(pkg.Path, "/testdata/")
}
