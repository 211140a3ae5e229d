// Package lib is the reachability gate's fixture: of its four functions,
// only OnlyTested is reached by no program.
package lib

// Sizer is the interface Size is called through.
type Sizer interface{ Size() int }

// T holds the state its getter returns.
type T struct{ n int }

// N is a one-statement getter of receiver state.
func (t *T) N() int { return t.n }

// Size implements Sizer; no code calls it directly.
func (t *T) Size() int { return t.n * 2 }

// Used is called from the cmd package.
func Used() int { return len("used") }

// OnlyTested is called only by its test.
func OnlyTested() int { return len("tested") }
