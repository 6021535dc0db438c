package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux this runs on; there is no portable way to ask
// without cgo.
const clockTick = 100

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from after its closing parenthesis (field 3 = state).
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc: malformed stat for %d", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc: short stat for %d", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc: utime/stime of %d unreadable", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// selfCPU is procCPU for this process at rusage's microsecond grain.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procKV reads one "Key:   value [unit]" line of a /proc/<pid>/<file>.
func procKV(pid int, file, key string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc: no %s in /proc/%d/%s", key, pid, file)
}

// peakRSSMiB is the high-water mark of a process's resident set.
func peakRSSMiB(pid int) (float64, error) {
	kb, err := procKV(pid, "status", "VmHWM")
	return float64(kb) / 1024, err
}

// resetPeakRSS returns this process's freed memory to the system and
// starts VmHWM over from what is left, so that the peak read after the
// window is the window's — as a served workload's is, whose daemon is
// restarted after set-up — and not that of three set-ups' garbage, which
// put it anywhere between 110 and 210 MiB. Where the kernel refuses, the
// peak stays the whole process's and the run says so.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Printf("peak_rss_mb covers the set-ups too: %v\n", err)
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// settle drains the filesystem's write-back queue. A set-up or an insert
// phase that starts while the kernel is still writing out what the
// previous one dirtied (or deleted) pays for it in its own fsyncs: the
// same set-up took 0.2 s on a quiet disk and 0.35 s behind another one.
// Called, untimed, before each timed stretch that writes.
func settle() { syscall.Sync() }
