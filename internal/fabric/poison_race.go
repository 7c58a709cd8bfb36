//go:build race

package fabric

// poisonOnRelease: race builds (CI's `go test -race` jobs) overwrite every
// released buffer, so a use after Release shows up as a wrong result in
// the differential and conformance suites instead of passing by luck.
const poisonOnRelease = true
