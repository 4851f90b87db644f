// Package unusedfunc is the unused-func analyzer fixture: every
// unexported package-level function must be referenced by a non-test
// file of the package.
package unusedfunc

// Exported functions are API: never reported, and their references
// count.
func Exported() int {
	return called() + table["v"]() + explicit[int](1) + inferred(2) + countdown(3)
}

func called() int { return 1 }

// A function referenced as a value is used.
var table = map[string]func() int{"v": asValue}

func asValue() int { return 2 }

// Generic functions count as used whether the call names the type
// arguments or infers them.
func explicit[T any](v T) T { return v }

func inferred[T any](v T) T { return v }

// Recursion is fine once something else calls the function too.
func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

func init() {}

type t struct{}

// Methods are out of scope: an interface may need them.
func (t) method() {}

func neverCalled() {} // want "unexported function neverCalled is never referenced"

func onlyRecursive(n int) int { // want "unexported function onlyRecursive is never referenced"
	if n == 0 {
		return 0
	}
	return onlyRecursive(n - 1)
}

func genericUnused[T any](v T) T { return v } // want "unexported function genericUnused is never referenced"

// onlyTested is called from the fixture's test file alone, which the
// loader does not read.
func onlyTested() int { return 3 } // want "unexported function onlyTested is never referenced"
