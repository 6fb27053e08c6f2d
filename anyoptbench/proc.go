package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the utime/stime fields in
// /proc/<pid>/stat. Linux fixes it at 100 on every architecture the Go
// toolchain targets.
const clockTicks = 100

// parseStatCPU returns utime+stime in milliseconds from a /proc/<pid>/stat
// line. The command name (field 2) may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat: no command name terminator")
	}
	// After ')' come fields 3 (state) onwards; utime and stime are fields 14
	// and 15.
	f := strings.Fields(string(stat[end+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name, want >= 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return float64(utime+stime) * 1000 / clockTicks, nil
}

// parseKeyed returns the integer value of key in a "Key: value [unit]"
// file such as /proc/<pid>/status or /proc/<pid>/io.
func parseKeyed(data []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: no value", key)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("%s: not found", key)
}

// procCPUms is the process's user+system CPU time so far.
func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procHWMmb is the process's peak resident set (VmHWM) in MB.
func procHWMmb(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseKeyed(b, "VmHWM")
	return float64(kb) / 1024, err
}

// procWchar is the bytes the process has passed to write-family syscalls.
// pid 0 reads the benchmark's own counter.
func procWchar(pid int) (int64, error) {
	path := "/proc/self/io"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/io", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return parseKeyed(b, "wchar")
}
