// Command tool is a main package under internal/: nothing imports it,
// so its main is never reported.
package main

func main() {}
