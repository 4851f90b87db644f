package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A LoadedPackage is one source-parsed, fully type-checked package
// ready for analysis.
type LoadedPackage struct {
	Path    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Sources map[string][]byte
}

// A Loader type-checks packages of the module rooted at ModuleDir
// without golang.org/x/tools: `go list -deps -export` supplies compiled
// export data for every dependency, the targets themselves are parsed
// from source (comments included — the analyzers are driven by
// directives), and the standard gc importer reads the export files.
type Loader struct {
	// ModuleDir is the directory `go list` runs in (the module root or
	// any directory inside it).
	ModuleDir string

	fset    *token.FileSet
	exports map[string]string // import path → export-data file
}

// NewLoader returns a loader for the module containing dir.
func NewLoader(dir string) *Loader {
	return &Loader{ModuleDir: dir, fset: token.NewFileSet(), exports: map[string]string{}}
}

// Fset returns the file set shared by every package this loader built.
func (l *Loader) Fset() *token.FileSet { return l.fset }

type listedPackage struct {
	ImportPath   string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Deps         []string
	TestImports  []string
	XTestImports []string
	Dir          string
	Standard     bool
}

func (l *Loader) goList(args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// resolveExports lists the transitive dependency closure of the given
// patterns with compiled export data and caches the export file of
// every package in it. It returns the closure in dependency order.
func (l *Loader) resolveExports(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export,GoFiles,Dir,Standard"}, patterns...)
	pkgs, err := l.goList(args...)
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return pkgs, nil
}

func (l *Loader) importer() types.Importer {
	return importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(e)
	})
}

// LoadPatterns loads the packages matched by the go list patterns
// (e.g. "./...", "./internal/core/"), type-checking each from source
// with its dependencies imported from export data.
func (l *Loader) LoadPatterns(patterns ...string) ([]*LoadedPackage, error) {
	targets, err := l.goList(append([]string{"list", "-json=ImportPath"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	closure, err := l.resolveExports(patterns)
	if err != nil {
		return nil, err
	}
	isTarget := map[string]bool{}
	for _, t := range targets {
		isTarget[t.ImportPath] = true
	}
	byPath := map[string]listedPackage{}
	for _, p := range closure {
		byPath[p.ImportPath] = p
	}
	var out []*LoadedPackage
	for _, t := range targets {
		p, ok := byPath[t.ImportPath]
		if !ok {
			return nil, fmt.Errorf("analysis: %s missing from dependency closure", t.ImportPath)
		}
		lp, err := l.check(p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

// LoadDir loads a single directory of Go files that is not a package
// of the module build (an analyzer test fixture under testdata) —
// like LoadPatterns, its non-test files only. The
// files' imports are resolved through the module context, so fixtures
// may import both the standard library and module packages. importPath
// names the resulting package in diagnostics.
func (l *Loader) LoadDir(dir, importPath string) (*LoadedPackage, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: fixture dir: %w", err)
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	// Parse first to learn the import set, then resolve export data for
	// exactly those imports.
	files, sources, err := l.parseFiles(dir, goFiles)
	if err != nil {
		return nil, err
	}
	importSet := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != "unsafe" {
				importSet[p] = true
			}
		}
	}
	if len(importSet) > 0 {
		var imports []string
		for p := range importSet {
			imports = append(imports, p)
		}
		sort.Strings(imports)
		if _, err := l.resolveExports(imports); err != nil {
			return nil, err
		}
	}
	return l.checkParsed(importPath, files, sources)
}

func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, map[string][]byte, error) {
	var files []*ast.File
	sources := map[string][]byte{}
	for _, name := range names {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: %w", err)
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: parse: %w", err)
		}
		files = append(files, f)
		sources[full] = src
	}
	return files, sources, nil
}

func (l *Loader) check(importPath, dir string, goFiles []string) (*LoadedPackage, error) {
	files, sources, err := l.parseFiles(dir, goFiles)
	if err != nil {
		return nil, err
	}
	lp, err := l.checkParsed(importPath, files, sources)
	if err != nil {
		return nil, err
	}
	lp.Dir = dir
	return lp, nil
}

func (l *Loader) checkParsed(importPath string, files []*ast.File, sources map[string][]byte) (*LoadedPackage, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l.importer()}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &LoadedPackage{
		Path:    importPath,
		Fset:    l.fset,
		Files:   files,
		Types:   pkg,
		Info:    info,
		Sources: sources,
	}, nil
}
