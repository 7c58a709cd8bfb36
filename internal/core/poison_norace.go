//go:build !race

package core

const poisonOnRelease = false
