package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// calibBuf is the fixed input of the host reference kernel.
var calibBuf = make([]byte, 256<<10)

// calibrate times a fixed reference kernel (SHA-256 over 2 MiB) three
// times and returns the median in milliseconds. It does not involve the
// system under test: a change in it between runs is the machine, not
// the code.
func calibrate() float64 {
	var t [3]float64
	for i := range t {
		start := time.Now()
		for j := 0; j < 8; j++ {
			sha256.Sum256(calibBuf)
		}
		t[i] = ms(time.Since(start))
	}
	return median(t[:])
}

// resetPeakRSS restarts the process's VmHWM at its current resident
// set, so the peak covers what follows and not the input generation.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is the CPU time this process has used, user and system. On a
// guest whose kernel accounts steal time, time the host took from the
// VM is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		// user nice system idle iowait irq softirq steal (guest time is
		// already inside user).
		if i <= 8 {
			st.total += v
		}
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealPct is the share of CPU time stolen between before and s.
func (s cpuStat) stealPct(before cpuStat) float64 {
	return 100 * ratio(float64(s.steal-before.steal), float64(s.total-before.total))
}
