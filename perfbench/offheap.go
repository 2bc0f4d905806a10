package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap returns an empty slice with capacity n backed by anonymous
// memory the Go heap does not own, and a function that unmaps it. T
// must hold no pointers. The benchmark keeps its sample and span buffers
// there so that their size, which follows the measured rate, does not
// change the garbage collector's pacing of the program under test.
// Pages are touched, and so resident, only as the slice fills.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := max(n, 1) * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("mapping %d bytes for the benchmark's buffers: %w", size, err)
	}
	s := unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), max(n, 1))[:0:n]
	// Munmap fails only for a range that is not mapped, which this one is.
	return s, func() { _ = syscall.Munmap(mem) }, nil
}
