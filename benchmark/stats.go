package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks, together with the number of
// samples it rests on. An empty sample gives (NaN, 0), which the result
// writer rejects, so a metric with no samples can never pass as a number.
func percentile(xs []float64, q float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), n
}

// median is percentile(xs, 0.5) without the count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// geomean returns the geometric mean of positive values (NaN otherwise).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean (NaN for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuTime is the CPU time the process has used so far, user and system,
// all threads. Unlike wall time it does not grow while the host runs other
// tenants' work on this CPU.
func cpuTime() time.Duration {
	user, sys := rusageTimes()
	return user + sys
}

// rusageTimes is the process's CPU time so far, split into user and
// system time. The kernel keeps the sum exact and splits it by sampling at
// each scheduler tick (4 ms at 250 Hz), so the split is good to a few
// percent over windows of half a second or more, not for a single
// millisecond request.
func rusageTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0 // Linux does not fail RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// processCPUTime is the CPU time of the whole process, all threads, user
// and system, read from CLOCK_PROCESS_CPUTIME_ID to the nanosecond.
func processCPUTime() time.Duration {
	const clockProcessCPUTimeID = 2
	return clockTime(clockProcessCPUTimeID)
}

// threadCPUTime is the CPU time of the calling thread, read from
// CLOCK_THREAD_CPUTIME_ID to the nanosecond. The caller must be locked to
// its thread (runtime.LockOSThread) across the two readings. For calls of
// a millisecond or less it is exact, where getrusage counts in scheduler
// ticks and the process total also picks up other threads' work (the
// GC's, the HTTP server's).
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	return clockTime(clockThreadCPUTimeID)
}

func clockTime(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0 // Linux supports both CPU-time clocks since 2.6.12
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
