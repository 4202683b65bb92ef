package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix introduces every dexvet machine-readable comment.
const directivePrefix = "//dexvet:"

// NoallocDirective and MutatorDirective are the annotation markers
// analyzers look for in function doc comments (exported so the
// analyzers and their tests share one definition).
const (
	NoallocDirective = "noalloc"
	MutatorDirective = "mutator"
	allowDirective   = "allow"
)

// HasDirective reports whether a function's doc comment carries the
// given marker directive (e.g. //dexvet:noalloc).
func HasDirective(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
			if fields := strings.Fields(rest); len(fields) > 0 && fields[0] == name {
				return true
			}
		}
	}
	return false
}

// allowRange is one allow suppression: rule suppressed in
// [from, to] of the directive's file. used records whether it has
// suppressed a finding.
type allowRange struct {
	pos      token.Position // the directive itself
	from, to int
	rule     string
	used     bool
}

type directiveIndex struct {
	allowsIdx []allowRange
}

// allows reports whether an allow covers diag, marking the allow used.
func (d *directiveIndex) allows(diag Diagnostic) bool {
	for i := range d.allowsIdx {
		a := &d.allowsIdx[i]
		if a.rule == diag.Rule && a.pos.Filename == diag.Pos.Filename &&
			diag.Pos.Line >= a.from && diag.Pos.Line <= a.to {
			a.used = true
			return true
		}
	}
	return false
}

// unused reports every allow that suppressed nothing, under the
// "dexvet" pseudo-rule: an allow whose finding is gone is a stale
// claim about the code and must be deleted with it.
func (d *directiveIndex) unused() []Diagnostic {
	var out []Diagnostic
	for _, a := range d.allowsIdx {
		if !a.used {
			out = append(out, Diagnostic{
				Pos:  a.pos,
				Rule: "dexvet",
				Msg:  fmt.Sprintf("//dexvet:allow %s suppresses nothing — delete it", a.rule),
			})
		}
	}
	return out
}

// parseDirectives scans one package for //dexvet: comments, validates
// them (allow needs a known rule and a non-empty reason; noalloc and
// mutator must sit in a function's doc comment), and builds the
// suppression index. Malformed directives come back as findings under
// the pseudo-rule "dexvet" — they are not themselves suppressible, and
// neither are the unused-allow findings the index reports once every
// analyzer has run.
func parseDirectives(pkg *Package, analyzers []*Analyzer) (*directiveIndex, []Diagnostic) {
	rules := map[string]bool{}
	for _, a := range analyzers {
		rules[a.Name] = true
	}

	idx := &directiveIndex{}
	var errs []Diagnostic
	fail := func(pos token.Pos, format string, args ...any) {
		p := &Pass{Analyzer: &Analyzer{Name: "dexvet"}, Pkg: pkg}
		p.Reportf(pos, format, args...)
		errs = append(errs, p.diags...)
	}

	for _, file := range pkg.Syntax {
		// Map doc comment groups to their functions so doc-level allows
		// cover the whole body and marker directives can insist on being
		// function-attached.
		docOf := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				docOf[fd.Doc] = fd
			}
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					fail(c.Pos(), "empty //dexvet: directive")
					continue
				}
				switch fields[0] {
				case allowDirective:
					if len(fields) < 2 || !rules[fields[1]] {
						fail(c.Pos(), "//dexvet:allow needs a rule name (one of the dexvet analyzers)")
						continue
					}
					if len(fields) < 3 {
						fail(c.Pos(), "//dexvet:allow %s needs a reason — say why the finding does not apply", fields[1])
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					ar := allowRange{pos: pos, rule: fields[1]}
					if fd, ok := docOf[group]; ok {
						ar.from = pkg.Fset.Position(fd.Pos()).Line
						ar.to = pkg.Fset.Position(fd.End()).Line
					} else {
						// Same line (trailing comment) or the line below
						// (comment above the offending statement).
						ar.from = pos.Line
						ar.to = pos.Line + 1
					}
					idx.allowsIdx = append(idx.allowsIdx, ar)
				case NoallocDirective, MutatorDirective:
					if _, ok := docOf[group]; !ok {
						fail(c.Pos(), "//dexvet:%s must be in a function's doc comment", fields[0])
					}
				default:
					fail(c.Pos(), "unknown directive //dexvet:%s", fields[0])
				}
			}
		}
	}
	return idx, errs
}
