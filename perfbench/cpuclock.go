package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Linux clock ids for clock_gettime.
const (
	clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTimeID  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// threadCPU returns the CPU time the calling OS thread has consumed.
// The batch workloads time the learner on this clock, with the
// driving goroutine locked to its thread: on a virtual machine it
// leaves out the time the hypervisor runs other guests on the vCPU
// (steal), which wall time on a shared host includes.
func threadCPU() time.Duration {
	d, _ := readThreadCPU()
	return d
}

func readThreadCPU() (time.Duration, error) { return readClock(clockThreadCPUTimeID) }

// processCPU returns the CPU time all threads of the process have
// consumed. The served workloads time on this clock: with a single
// closed-loop client, the process does nothing between the send of a
// request and its reply but serve it, so the CPU time spent in that
// window is the request's cost without steal.
func processCPU() time.Duration {
	d, _ := readProcessCPU()
	return d
}

func readProcessCPU() (time.Duration, error) { return readClock(clockProcessCPUTimeID) }

func readClock(id uintptr) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", id, errno)
	}
	return time.Duration(ts.Nano()), nil
}
