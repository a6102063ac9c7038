// Package fix is the fixture's public package: it re-exports
// lib.Widget, so Widget's exported methods are API.
package fix

import "fix/internal/lib"

// Widget is lib.Widget.
type Widget = lib.Widget
