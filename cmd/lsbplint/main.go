// Command lsbplint is the project's invariant linter: it runs the
// internal/analysis suite (hotpath-noalloc, epoch-atomics,
// errs-taxonomy, durable-format, unused-func) over the tree and, with
// -makefile, also asserts that the Makefile's RACE_PKGS list has not
// drifted from the set of concurrency-relevant packages.
//
// Usage:
//
//	lsbplint [-makefile Makefile] [-fixture dir=importpath]... [patterns...]
//
// Patterns default to ./... . Each finding prints as
// "file:line:col: message (analyzer)"; any finding exits 1.
//
// -fixture loads a bare directory (one not part of the module build,
// e.g. internal/analysis/testdata/src/hotpath) as if it were a package,
// which is how the test suite demonstrates that seeded violations fail
// the gate.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var (
		makefile string
		fixtures []string
		patterns []string
	)
	for i := 0; i < len(args); i++ {
		switch arg := args[i]; {
		case arg == "-makefile" || arg == "--makefile":
			if i+1 >= len(args) {
				fmt.Fprintln(stderr, "lsbplint: -makefile needs a path")
				return 2
			}
			i++
			makefile = args[i]
		case arg == "-fixture" || arg == "--fixture":
			if i+1 >= len(args) {
				fmt.Fprintln(stderr, "lsbplint: -fixture needs dir=importpath")
				return 2
			}
			i++
			fixtures = append(fixtures, args[i])
		case arg == "-h" || arg == "-help" || arg == "--help":
			usage(stdout)
			return 0
		case strings.HasPrefix(arg, "-"):
			fmt.Fprintf(stderr, "lsbplint: unknown flag %s\n", arg)
			usage(stderr)
			return 2
		default:
			patterns = append(patterns, arg)
		}
	}
	if len(patterns) == 0 && len(fixtures) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "lsbplint:", err)
		return 2
	}
	loader := analysis.NewLoader(wd)

	var pkgs []*analysis.LoadedPackage
	if len(patterns) > 0 {
		pkgs, err = loader.LoadPatterns(patterns...)
		if err != nil {
			fmt.Fprintln(stderr, "lsbplint:", err)
			return 2
		}
	}
	for _, fx := range fixtures {
		dir, importPath, ok := strings.Cut(fx, "=")
		if !ok {
			importPath = "fixture/" + strings.Trim(dir, "./")
		}
		p, err := loader.LoadDir(dir, importPath)
		if err != nil {
			fmt.Fprintln(stderr, "lsbplint:", err)
			return 2
		}
		pkgs = append(pkgs, p)
	}

	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(stderr, "lsbplint:", err)
		return 2
	}
	if makefile != "" {
		raceDiags, err := analysis.CheckRacePkgs(makefile)
		if err != nil {
			fmt.Fprintln(stderr, "lsbplint:", err)
			return 2
		}
		diags = append(diags, raceDiags...)
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stdout, "lsbplint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: lsbplint [-makefile Makefile] [-fixture dir=importpath]... [patterns...]

Runs the in-tree invariant analyzers (hotpath-noalloc, epoch-atomics,
errs-taxonomy, durable-format, unused-func) over the packages matched
by the go list patterns (default ./...). With -makefile, also checks
RACE_PKGS drift. Exits 1 on any finding.`)
}
