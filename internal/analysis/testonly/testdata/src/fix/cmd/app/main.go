// Command app is the fixture's only caller of lib.CalledFromMain.
package main

import "fix/internal/lib"

func main() { lib.CalledFromMain() }
