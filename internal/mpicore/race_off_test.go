//go:build !race

package mpicore

const raceBuild = false
