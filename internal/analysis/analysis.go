// Package analysis is the in-tree static-analysis suite behind
// cmd/lsbplint: a small go/analysis-style framework (the upstream
// golang.org/x/tools module is deliberately not a dependency — the
// loader in load.go drives go/parser + go/types over `go list -export`
// output, so the suite builds offline with the standard library alone)
// plus the five analyzers that machine-check the serving plane's
// by-convention invariants:
//
//   - hotpath-noalloc (hotpath.go): functions annotated //lsbp:hotpath
//     must not contain allocating constructs and may only call other
//     annotated (or allowlisted) functions — the 0 allocs/op benchmark
//     guarantee as a compile-time gate.
//   - epoch-atomics (atomics.go): struct fields annotated //lsbp:atomic
//     may only be touched through sync/atomic operations or designated
//     //lsbp:atomic-access functions — the RCU epoch discipline.
//   - errs-taxonomy (errstaxonomy.go): packages that import
//     repro/internal/errs must wrap (%w) every fmt.Errorf they return
//     and must not mint dynamic errors.New values at return sites.
//   - durable-format (durableformat.go): in packages carrying
//     //lsbp:format declarations, raw file writes must flow through the
//     checksumming writer, and any edit to the format-affecting
//     declarations must be accompanied by a FormatVersion/formatLock
//     bump in the same package.
//   - unused-func (unusedfunc.go): every unexported package-level
//     function must be referenced by a non-test file of its package.
//
// A finding is suppressed with a justified directive on (or directly
// above) the offending line:
//
//	//lsbp:ignore <analyzer-name> -- <why this is safe>
//
// The justification is mandatory; a bare ignore is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore
	// directives, e.g. "hotpath-noalloc".
	Name string
	// Doc is the one-line description printed by lsbplint -help.
	Doc string
	// Run inspects pass and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's view of one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Sources maps filename to raw file bytes (durable-format hashes
	// declaration source text).
	Sources map[string][]byte
	// Reg is the cross-package annotation registry collected from every
	// loaded package before any analyzer ran.
	Reg *Registry

	ignores map[string]map[int]*ignoreDirective // filename → line → directive
	diags   *[]Diagnostic
}

// Reportf records a finding unless a justified //lsbp:ignore directive
// covers its line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if ig := p.ignoreFor(position); ig != nil {
		ig.used = true
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreFor finds a directive covering pos: on the same line or the
// line directly above.
func (p *Pass) ignoreFor(pos token.Position) *ignoreDirective {
	lines := p.ignores[pos.Filename]
	for _, ln := range [2]int{pos.Line, pos.Line - 1} {
		if ig := lines[ln]; ig != nil && ig.covers(p.Analyzer.Name) {
			return ig
		}
	}
	return nil
}

type ignoreDirective struct {
	analyzers []string
	justified bool
	used      bool
	pos       token.Pos
}

func (ig *ignoreDirective) covers(name string) bool {
	if !ig.justified {
		return false // unjustified directives suppress nothing
	}
	for _, a := range ig.analyzers {
		if a == name || a == "all" {
			return true
		}
	}
	return false
}

// Directive prefixes recognized in comments.
const (
	dirHotpath      = "lsbp:hotpath"
	dirHotpathInit  = "lsbp:hotpath-init"
	dirAtomic       = "lsbp:atomic"
	dirAtomicAccess = "lsbp:atomic-access"
	dirFormat       = "lsbp:format"
	dirRawIO        = "lsbp:rawio"
	dirIgnore       = "lsbp:ignore"
)

// directivesOf extracts the lsbp: directives of a comment group: one
// entry per comment line that starts with //lsbp: (after trimming),
// with the leading "//" removed.
func directivesOf(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	var out []string
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if strings.HasPrefix(text, "lsbp:") {
			out = append(out, strings.TrimSpace(text))
		}
	}
	return out
}

func hasDirective(doc *ast.CommentGroup, dir string) bool {
	for _, d := range directivesOf(doc) {
		if d == dir || strings.HasPrefix(d, dir+" ") {
			return true
		}
	}
	return false
}

// FuncAnnotation is the directive set of one function declaration.
type FuncAnnotation struct {
	// Hotpath marks a function whose body the hotpath-noalloc analyzer
	// checks in full.
	Hotpath bool
	// HotpathInit marks a function callable from hot paths whose body
	// is exempt: guarded one-time initialization or amortized growth
	// (sync worker spawn, pool-miss builds, buffer doubling).
	HotpathInit bool
	// AtomicAccess marks a designated accessor allowed to touch
	// //lsbp:atomic fields directly.
	AtomicAccess bool
	// RawIO marks a reviewed function allowed to issue raw Write calls
	// in a //lsbp:format package.
	RawIO bool
}

// Registry holds annotations collected from every loaded package, so
// cross-package checks (a core hot path calling a kernel function) see
// the callee's directives. Keys are position-independent strings, so
// objects imported from export data and objects type-checked from
// source agree.
type Registry struct {
	funcs  map[string]FuncAnnotation
	fields map[string]bool // //lsbp:atomic struct fields
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{funcs: map[string]FuncAnnotation{}, fields: map[string]bool{}}
}

// FuncKey is the registry key of a function object: the generic origin
// full name with pointer-receiver stars stripped, e.g.
// "(repro/internal/kernel.Engine).rows" or "repro/internal/durable.Join".
func FuncKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	name := fn.FullName()
	name = strings.ReplaceAll(name, "*", "")
	// Instantiated receivers keep their type arguments in FullName;
	// drop them so statePool[T].get and statePool[Engine].get agree.
	if i := strings.IndexByte(name, '['); i >= 0 {
		if j := strings.LastIndexByte(name, ']'); j > i {
			name = name[:i] + name[j+1:]
		}
	}
	return name
}

// FieldKey is the registry key of a struct field: pkgpath.Struct.Field.
func FieldKey(pkgPath, structName, fieldName string) string {
	return pkgPath + "." + structName + "." + fieldName
}

// FuncAnnotation looks up fn's directives; the zero value means
// un-annotated.
func (r *Registry) FuncAnnotation(fn *types.Func) FuncAnnotation {
	return r.funcs[FuncKey(fn)]
}

// AtomicField reports whether the named struct field is annotated
// //lsbp:atomic.
func (r *Registry) AtomicField(pkgPath, structName, fieldName string) bool {
	return r.fields[FieldKey(pkgPath, structName, fieldName)]
}

// Collect records pkg's annotations into the registry and returns the
// per-file ignore-directive index used by Reportf.
func (r *Registry) Collect(pkg *LoadedPackage) map[string]map[int]*ignoreDirective {
	ignores := map[string]map[int]*ignoreDirective{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				an := FuncAnnotation{
					Hotpath:      hasDirective(d.Doc, dirHotpath),
					HotpathInit:  hasDirective(d.Doc, dirHotpathInit),
					AtomicAccess: hasDirective(d.Doc, dirAtomicAccess),
					RawIO:        hasDirective(d.Doc, dirRawIO),
				}
				// "lsbp:hotpath-init" also matches the "lsbp:hotpath"
				// prefix test only when identical; keep them distinct.
				if an.HotpathInit {
					an.Hotpath = false
				}
				if an == (FuncAnnotation{}) {
					continue
				}
				if obj, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
					r.funcs[FuncKey(obj)] = an
				}
			case *ast.GenDecl:
				collectFieldDirectives(r, pkg, d)
			}
		}
		collectIgnores(ignores, pkg.Fset, f)
	}
	return ignores
}

func collectFieldDirectives(r *Registry, pkg *LoadedPackage, d *ast.GenDecl) {
	if d.Tok != token.TYPE {
		return
	}
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			continue
		}
		for _, field := range st.Fields.List {
			if !hasDirective(field.Doc, dirAtomic) && !hasDirective(field.Comment, dirAtomic) {
				continue
			}
			for _, name := range field.Names {
				r.fields[FieldKey(pkg.Types.Path(), ts.Name.Name, name.Name)] = true
			}
		}
	}
}

func collectIgnores(into map[string]map[int]*ignoreDirective, fset *token.FileSet, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, dirIgnore) {
				continue
			}
			rest := strings.TrimPrefix(text, dirIgnore)
			ig := &ignoreDirective{pos: c.Pos()}
			if names, why, ok := strings.Cut(rest, "--"); ok && strings.TrimSpace(why) != "" {
				ig.justified = true
				ig.analyzers = strings.Fields(strings.ReplaceAll(names, ",", " "))
			}
			pos := fset.Position(c.Pos())
			lines := into[pos.Filename]
			if lines == nil {
				lines = map[int]*ignoreDirective{}
				into[pos.Filename] = lines
			}
			lines[pos.Line] = ig
		}
	}
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{HotpathNoAlloc, EpochAtomics, ErrsTaxonomy, DurableFormat, UnusedFunc}
}

// Run executes the analyzers over every loaded package: annotations are
// collected from all packages first, then each analyzer visits each
// package. Unjustified or unused ignore directives are reported as
// findings of the "lsbp-directives" pseudo-analyzer. Diagnostics come
// back sorted by position.
func Run(pkgs []*LoadedPackage, analyzers []*Analyzer) ([]Diagnostic, error) {
	reg := NewRegistry()
	ignoreIdx := make([]map[string]map[int]*ignoreDirective, len(pkgs))
	for i, pkg := range pkgs {
		ignoreIdx[i] = reg.Collect(pkg)
	}
	var diags []Diagnostic
	for i, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Sources:  pkg.Sources,
				Reg:      reg,
				ignores:  ignoreIdx[i],
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
	}
	for i, pkg := range pkgs {
		for _, lines := range ignoreIdx[i] {
			for _, ig := range lines {
				switch {
				case !ig.justified:
					diags = append(diags, Diagnostic{
						Pos:      pkg.Fset.Position(ig.pos),
						Analyzer: "lsbp-directives",
						Message:  "lsbp:ignore needs a justification: //lsbp:ignore <analyzer> -- <why>",
					})
				case !ig.used:
					diags = append(diags, Diagnostic{
						Pos:      pkg.Fset.Position(ig.pos),
						Analyzer: "lsbp-directives",
						Message:  fmt.Sprintf("lsbp:ignore for %s suppresses nothing; remove it", strings.Join(ig.analyzers, ",")),
					})
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}
