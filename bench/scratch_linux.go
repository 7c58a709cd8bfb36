package main

import (
	"os"
	"syscall"
	"unsafe"
)

// spreadSubdirs marks dir as the top of a directory hierarchy (chattr +T),
// which tells ext4's allocator to place each directory created in it in a
// block group with plenty of free inodes instead of next to its parent.
// Without it every scratch directory of every run lands in the block group
// of the shared temp directory, where the create-and-delete churn of
// earlier runs makes inode allocation cost ten times more and vary with
// what ran before (measured: 252 mkdirs 55-100 ms against 4 ms). Best
// effort: other filesystems refuse the flag and nothing changes.
func spreadSubdirs(dir string) {
	const (
		fsIocGetFlags = 0x80086601
		fsIocSetFlags = 0x40086602
		fsTopdirFl    = 0x00020000
	)
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); errno != 0 {
		return
	}
	flags |= fsTopdirFl
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
