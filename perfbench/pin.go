package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The CPUs of a shared host can differ in speed by a third for seconds at a
// time, from contention the guest cannot see. So the benchmark runs its
// measurements on one goroutine locked to its OS thread (main calls
// runtime.LockOSThread), and before each round of a fig9 run (and each cell
// of a traced layer-call pass) binds that thread to the CPU on which a
// fixed arithmetic probe currently runs fastest. The timed samples and the
// reference work that scales them (calib.go) then run on the same CPU. The
// probe's time is never part of a measurement. A tomserve spawned from a
// pinned thread inherits the single-CPU mask: serve-sweep unpins before it
// spawns a server for a cold batch, which needs every CPU, and pins before
// the restarts for its replay and warm batches, so that those servers, the
// client, and the reference units after each batch share one CPU.

// pinFastestCPU binds the calling thread to the currently fastest CPU and
// returns it, or -1 when affinity cannot be set (the run then goes on
// unpinned).
func pinFastestCPU() int {
	best, bestTime := -1, time.Duration(1<<62)
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		if setAffinity(cpu) != nil {
			continue
		}
		t := time.Duration(1 << 62)
		for range 3 {
			t = min(t, probe())
		}
		if t < bestTime {
			best, bestTime = cpu, t
		}
	}
	if best < 0 || setAffinity(best) != nil {
		return -1
	}
	return best
}

// unpin lets the calling thread run on every CPU again.
func unpin() {
	var mask [16]uint64
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		mask[cpu/64] |= 1 << (cpu % 64)
	}
	if err := writeAffinity(&mask); err != nil {
		logf("unpin: %v", err)
	}
}

func setAffinity(cpu int) error {
	var mask [16]uint64 // room for 1024 CPUs
	mask[cpu/64] = 1 << (cpu % 64)
	return writeAffinity(&mask)
}

func writeAffinity(mask *[16]uint64) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
	if e != 0 {
		return e
	}
	return nil
}

var probeSink uint64

// probe times a fixed dependent chain of integer arithmetic (about 2 ms).
func probe() time.Duration {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 2_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	probeSink += x
	return time.Since(start)
}
