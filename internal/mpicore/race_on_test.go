//go:build race

package mpicore

// raceBuild: the race detector allocates on its own and makes sync.Pool
// drop entries at random, so allocation counts mean nothing under it.
const raceBuild = true
