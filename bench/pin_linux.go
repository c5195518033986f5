package main

import (
	"errors"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU confines every thread of this process, and with them every
// process it starts afterwards, to the highest-numbered processor it is
// allowed on, and returns that processor's number.
func pinToOneCPU() (int, error) {
	var mask [16]uint64 // room for 1024 processors
	size, ptr := unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, ptr); errno != 0 {
		return 0, errno
	}
	cpu := -1
	for i, word := range mask {
		for bit := 0; bit < 64; bit++ {
			if word>>bit&1 == 1 {
				cpu = i*64 + bit
			}
		}
	}
	if cpu < 0 {
		return 0, errors.New("empty affinity mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// A new thread inherits the mask of the thread that made it, so the
	// second pass catches any thread an unpinned one made during the first.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				return 0, err
			}
			// ESRCH: the thread ended after the directory was read.
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, ptr); errno != 0 && errno != syscall.ESRCH {
				return 0, errno
			}
		}
	}
	return cpu, nil
}
