// Package support is test support: only a _test.go file imports it, so
// its exports need no other caller.
package support

// Helper is called from tests alone.
func Helper() {}
