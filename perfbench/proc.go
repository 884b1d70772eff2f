package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// vmHWM reads the peak resident set size (VmHWM) of process pid ("self" for
// this process) in MiB.
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on every
// Linux architecture Go supports.
const clockTick = 100

// procCPU is process pid's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after the last ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// heapCounters reads this process's cumulative heap allocation (bytes) and
// completed GC cycles.
func heapCounters() (allocBytes, gcs uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		gcs = s[1].Value.Uint64()
	}
	return allocBytes, gcs
}

// procSample is a point-in-time reading of a process's CPU, allocation and
// GC counters; the difference of two readings over n ops gives the proc.*
// per-op metrics.
type procSample struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint64
}

func selfSample() procSample {
	a, g := heapCounters()
	return procSample{cpu: selfCPU(), alloc: a, gcs: g}
}

// setProcMetrics reports the proc.* per-op metrics between two readings.
func (r *Report) setProcMetrics(a, b procSample, ops int) {
	n := float64(ops)
	r.Set("proc.cpu_ms_per_op", "ms", ratio(float64(b.cpu-a.cpu)/1e6, n), ops)
	r.Set("proc.alloc_mb_per_op", "MB", ratio(float64(b.alloc-a.alloc)/1e6, n), ops)
	r.Set("proc.gc_per_op", "count", ratio(float64(b.gcs-a.gcs), n), ops)
}
