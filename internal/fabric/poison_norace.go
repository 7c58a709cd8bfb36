//go:build !race

package fabric

const poisonOnRelease = false
