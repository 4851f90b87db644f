package analysis

import (
	"go/ast"
	"go/types"
)

// UnusedFunc reports dead code the compiler accepts: an unexported
// package-level function (no receiver; not init or main) that no
// non-test file of its package references. The loader reads non-test
// files only, so a function that only tests call is reported too: its
// tests pin code the program never runs. References from inside the
// function's own body (recursion) do not count. Callees are compared
// through (*types.Func).Origin, so a generic function called with
// inferred type arguments counts as used.
var UnusedFunc = &Analyzer{
	Name: "unused-func",
	Doc:  "report unexported package-level functions that no non-test file of their package references",
	Run:  runUnusedFunc,
}

func runUnusedFunc(pass *Pass) error {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.IsExported() {
				continue
			}
			switch fd.Name.Name {
			case "init", "main", "_":
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	used := map[*types.Func]bool{}
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if fd := decls[fn]; fd != nil && (id.Pos() < fd.Pos() || id.Pos() >= fd.End()) {
			used[fn] = true
		}
	}
	for fn, fd := range decls {
		if !used[fn] {
			pass.Reportf(fd.Name.Pos(), "unexported function %s is never referenced by a non-test file of its package; delete it", fn.Name())
		}
	}
	return nil
}
