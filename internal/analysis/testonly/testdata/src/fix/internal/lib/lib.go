package lib

import "fmt"

// Unused has no caller outside tests.
func Unused() {} // want `func Unused is referenced only by tests`

// CalledFromMain is called only from another package, cmd/app.
func CalledFromMain() { fmt.Println(Stamp{}) }

// Recursive refers only to itself, which is not a caller.
func Recursive(n int) int { // want `func Recursive is referenced only by tests`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Stamp is printed through fmt.Stringer.
type Stamp struct{}

// String satisfies fmt.Stringer, so fmt calls it without a reference.
func (Stamp) String() string { return "stamp" }

// Widget is re-exported by the root package's alias.
type Widget struct{}

// Public is API through the alias.
func (Widget) Public() {}

// private is not API, alias or not.
func (Widget) private() {} // want `method Widget.private is referenced only by tests`

type gauge struct{}

// Bump is exported but its type is not re-exported.
func (*gauge) Bump() {} // want `method gauge.Bump is referenced only by tests`

// Hook serves a test in another package.
//
//tempolint:ignore testonly TestHook in another package reads it
func Hook() {}

func init() {}
