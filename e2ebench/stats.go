package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// minTail is the number of samples a reported percentile must have
// beyond it; with fewer, the percentile is not a tail but one sample.
const minTail = 10

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// ceil(p*n/100) in integers.
func rank(p, n int) int {
	return max((p*n+99)/100, 1)
}

// minSamples is the fewest samples of which percentile reports the p-th
// percentile.
func minSamples(p int) int {
	n := 1
	for n-rank(p, n) < minTail {
		n++
	}
	return n
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses a percentile with fewer than minTail samples beyond it.
func percentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	k := rank(p, n)
	if n-k < minTail {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", p, n, n-k, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSS returns the process's peak resident set size in bytes, from
// VmHWM in /proc/self/status.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM extracts the VmHWM line of a /proc/<pid>/status file.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %q: %w", line, err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// userHZ is the clock-tick unit of /proc/<pid>/stat times; Linux fixes
// it at 100 for user space on every architecture Go supports.
const userHZ = 100

// sinceProcessStart returns the time elapsed since the kernel started
// this process, so set-up time includes exec, runtime and package
// initialisation. The start is known to one clock tick (10 ms).
func sinceProcessStart() (time.Duration, error) {
	stat, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, err
	}
	ticks, err := parseStartTicks(stat)
	if err != nil {
		return 0, err
	}
	var ts syscall.Timespec
	const clockBoottime = 7
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockBoottime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	now := time.Duration(ts.Nano())
	return now - time.Duration(ticks)*time.Second/userHZ, nil
}

// parseStartTicks returns field 22 (starttime) of a /proc/<pid>/stat
// line. The command name (field 2) may hold spaces and parentheses, so
// fields are counted from its closing parenthesis.
func parseStartTicks(stat []byte) (int64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(string(stat[i+1:]))
	const startField = 22 - 3 // fields after ")" start at field 3
	if len(f) <= startField {
		return 0, fmt.Errorf("stat line has %d fields after the command", len(f))
	}
	return strconv.ParseInt(f[startField], 10, 64)
}
