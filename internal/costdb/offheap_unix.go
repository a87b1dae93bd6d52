//go:build unix

package costdb

import (
	"syscall"
	"unsafe"
)

// The system calls behind mapAnon and unmapAnon; tests replace them to
// refuse mappings and to check what is unmapped.
var (
	mmap   = syscall.Mmap
	munmap = syscall.Munmap
)

// mapAnon returns n zeroed values of the pointer-free type T in a fresh
// anonymous mapping outside the Go heap, plus the mapping itself for
// unmapAnon. Both are nil when the mapping fails. T must contain no
// pointers: the garbage collector does not scan the mapping.
func mapAnon[T any](n int) ([]T, []byte) {
	region, err := mmap(-1, 0, n*int(unsafe.Sizeof(*new(T))), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(region))), n), region
}

// unmapAnon releases a mapping mapAnon returned; nothing may refer into
// it afterwards.
func unmapAnon(region []byte) { _ = munmap(region) }
