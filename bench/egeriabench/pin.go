package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// The load phase runs on one CPU: the benchmark's clients, egeria and the
// reference server are all pinned to the same one. On a 2-vCPU VM every
// request otherwise wakes a process on the other vCPU, and how long that
// takes depends on the host's load; on one CPU the processes hand over by
// a plain context switch. On the host the benchmark was written on, six
// hot-query runs of each setup, interleaved, spread by 7.8% in raw
// throughput pinned and by 13.5% unpinned (quartile distance over median).

// cpuSet is the kernel's CPU affinity mask, sized like glibc's cpu_set_t.
type cpuSet [16]uint64

func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, e
	}
	return s, nil
}

func setAffinity(tid int, s cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return e
	}
	return nil
}

// highest returns a set holding only the highest-numbered CPU of s.
func (s cpuSet) highest() (cpuSet, bool) {
	for w := len(s) - 1; w >= 0; w-- {
		if s[w] != 0 {
			var one cpuSet
			one[w] = 1 << (63 - bits.LeadingZeros64(s[w]))
			return one, true
		}
	}
	return cpuSet{}, false
}

// setProcessAffinity gives every thread of this process the set s. A new
// thread inherits the set of the thread that starts it, so passes repeat
// until one finds every thread already set.
func setProcessAffinity(s cpuSet) error {
	for pass := 0; pass < 10; pass++ {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		changed := false
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			cur, err := getAffinity(tid)
			if errors.Is(err, syscall.ESRCH) {
				continue // the thread has exited
			}
			if err != nil {
				return fmt.Errorf("affinity of thread %d: %w", tid, err)
			}
			if cur == s {
				continue
			}
			changed = true
			if err := setAffinity(tid, s); err != nil && !errors.Is(err, syscall.ESRCH) {
				return fmt.Errorf("pin thread %d: %w", tid, err)
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("threads kept starting while the process was pinned")
}

// pinToOneCPU pins this process, and so every process it starts from now
// on, to the highest-numbered CPU it may run on. restore gives every
// thread its previous set back.
func pinToOneCPU() (restore func() error, err error) {
	all, err := getAffinity(0)
	if err != nil {
		return nil, fmt.Errorf("read CPU affinity: %w", err)
	}
	one, ok := all.highest()
	if !ok {
		return nil, fmt.Errorf("empty CPU affinity")
	}
	if err := setProcessAffinity(one); err != nil {
		return nil, err
	}
	return func() error { return setProcessAffinity(all) }, nil
}
