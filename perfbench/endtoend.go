package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run sets the system up; setup_s is the
// median, and the last set-up serves the measured phases.
const setupReps = 5

// windows is how many closed-loop windows share the measured seconds.
// Every figure is a median over the windows, so one slow stretch of a
// shared machine does not move it.
const windows = 10

func runEndToEnd(in *inputs, p *pristine, work string, seconds int, stdout io.Writer) (*output, error) {
	var setups []float64
	var e *env
	for rep := 0; rep < setupReps; rep++ {
		// Collect the previous set-up's garbage outside the timed span,
		// so every set-up starts from the same heap.
		runtime.GC()
		env, d, err := startEnv(in, p, filepath.Join(work, fmt.Sprintf("env%d", rep)), nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		fmt.Fprintf(stdout, "setup %d/%d: %.4f s (registry recovery %.1f ms, cluster sync %.1f ms, warm-up %.1f ms)\n",
			rep+1, setupReps, d.Seconds(), ms(env.recovery), ms(env.sync), ms(env.warm))
		if rep < setupReps-1 {
			env.close()
		} else {
			e = env
		}
	}
	defer e.close()
	// Return the earlier set-ups' freed pages to the OS, so the resident
	// set the windows measure is the serving process's own.
	debug.FreeOSMemory()

	var seq atomic.Int64
	// An untimed closed-loop second first, so the heap and the garbage
	// collector reach their serving steady state before measuring.
	printWindow(stdout, "settle", e.closedWindow(&seq, time.Second))
	d := time.Duration(seconds) * time.Second / windows
	var cps, cpuMs, steal, rss, calib []float64
	out := &output{Metrics: map[string]metric{}}
	chips := 0
	for i := 0; i < windows; i++ {
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("resetting the peak RSS: %w", err)
		}
		w := e.closedWindow(&seq, d)
		printWindow(stdout, fmt.Sprintf("closed %d/%d", i+1, windows), w)
		cps = append(cps, w.cps())
		cpuMs = append(cpuMs, w.cpuMsPerChip())
		steal = append(steal, w.stealPct)
		rss = append(rss, peakRSSMB())
		calib = append(calib, w.calibMs)
		chips += w.chips
		out.Attempted += w.sent
		out.Failed += w.failed()
	}
	out.Correct = out.Failed == 0
	out.Metrics["setup_s"] = metric{median(setups), "s"}
	out.Metrics["cpu_ms_per_chip"] = metric{median(cpuMs), "ms"}
	out.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}

	fmt.Fprintf(stdout, "setup_s     %10.4f s        median of %d set-ups; q1 %.4f q3 %.4f\n",
		median(setups), len(setups), quantile(setups, 0.25), quantile(setups, 0.75))
	fmt.Fprintf(stdout, "cpu_ms_per_chip %6.4f ms       median of %d closed windows (%d chips); q1 %.4f q3 %.4f\n",
		median(cpuMs), len(cpuMs), chips, quantile(cpuMs, 0.25), quantile(cpuMs, 0.75))
	// Wall-clock capacity is printed, not reported as a metric: on a
	// shared VM it follows the CPU time the host steals, which moved
	// between 4% and 48% within one run (see PREDICTIONS.md).
	fmt.Fprintf(stdout, "peak_cps    %10.2f chips/s  median of %d closed windows; q1 %.2f q3 %.2f; steal median %.0f%% q1 %.0f%% q3 %.0f%% (printed only)\n",
		median(cps), len(cps), quantile(cps, 0.25), quantile(cps, 0.75), median(steal), quantile(steal, 0.25), quantile(steal, 0.75))
	fmt.Fprintf(stdout, "fail_ratio  %10.4f          %d failed of %d attempted\n",
		float64(out.Failed)/float64(max(1, out.Attempted)), out.Failed, out.Attempted)
	fmt.Fprintf(stdout, "peak_rss_mb %10.1f MB       median of %d windows' VmHWM; q1 %.1f q3 %.1f\n",
		median(rss), len(rss), quantile(rss, 0.25), quantile(rss, 0.75))
	fmt.Fprintf(stdout, "host.calib_ms %8.3f ms       median over %d windows; q1 %.3f q3 %.3f\n",
		median(calib), len(calib), quantile(calib, 0.25), quantile(calib, 0.75))
	return out, nil
}

// printWindow reports one phase: counts, its throughput or latency
// quartiles, the generator's lateness and the host reference kernel.
func printWindow(w io.Writer, label string, win window) {
	fmt.Fprintf(w, "%-13s: sent %d ok %d failed %d (shed %d) in %.2f s; ",
		label, win.sent, win.ok, win.failed(), win.shed, win.elapsed.Seconds())
	if win.kind == "closed" {
		fmt.Fprintf(w, "%.2f chips/s; %.3f CPU ms/chip; steal %.0f%%; request ms q1/median/q3 %.2f/%.2f/%.2f",
			win.cps(), win.cpuMsPerChip(), win.stealPct, quantile(win.latMs, 0.25), median(win.latMs), quantile(win.latMs, 0.75))
	} else {
		fmt.Fprintf(w, "per-chip latency ms q1/median/q3/p90/p99 %.2f/%.2f/%.2f/%.2f/%.2f; late ms median/p90 %.3f/%.3f",
			quantile(win.latMs, 0.25), median(win.latMs), quantile(win.latMs, 0.75), quantile(win.latMs, 0.9),
			quantile(win.latMs, 0.99), median(win.lateMs), quantile(win.lateMs, 0.9))
	}
	fmt.Fprintf(w, "; host.calib_ms %.3f\n", win.calibMs)
	if win.firstBad != "" {
		fmt.Fprintf(w, "  first failure: %s\n", win.firstBad)
	}
}
