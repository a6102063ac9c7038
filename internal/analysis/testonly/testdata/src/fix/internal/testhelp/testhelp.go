// Package testhelp stands for a helper package that only tests import,
// like analysistest: nothing in the fixture imports it, so its
// functions are never reported.
package testhelp

func Helper() {}
