//go:build !linux

package main

// spreadSubdirs is the ext4 placement hint of scratch_linux.go; elsewhere
// there is nothing to set.
func spreadSubdirs(string) {}
