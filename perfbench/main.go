// Command perfbench is the end-to-end and per-layer benchmark of the
// fmverifyd verification service. It runs one named workload against a
// real service.Server in this process, over loopback HTTP, from at most
// two client connections, checks every verdict, and prints its metrics
// as one JSON object on the last line of standard output.
//
//	go run . --workload dock-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs a serial traced pass instead and reports the per-layer metrics.
// See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: dock-cold, rescan-cluster or challenge-audit")
		seed    = fs.Uint64("seed", 1, "seed all inputs derive from")
		seconds = fs.Int("seconds", 20, "measured seconds")
		trace   = fs.Int("trace", 0, "1 runs the serial traced pass and reports per-layer metrics")
		root    = fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	out, err := bench(*name, *seed, *seconds, *trace == 1, *root, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct || out.Failed > 0 {
		return 1
	}
	return 0
}

func bench(name string, seed uint64, seconds int, traced bool, root string, stdout io.Writer) (*output, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	build, err := filepath.Abs(filepath.Join(root, ".bench_build"))
	if err != nil {
		return nil, err
	}
	work := filepath.Join(build, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	in, err := buildInputs(w, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "workload %s seed %d: fleet %d chips (%d enrolled, %d physics misreads) digest %s; plan %d requests digest %s; expected verdicts digest %s\n",
		w.name, seed, len(in.chips), len(in.owners), in.misreads, in.fleetDigest, len(in.plan), in.planDigest, in.wantDigest)
	p, err := in.writeRegistry(filepath.Join(work, "pristine"))
	if err != nil {
		return nil, fmt.Errorf("generating registry: %w", err)
	}
	// Return input generation's garbage to the OS before set-up.
	debug.FreeOSMemory()
	if traced {
		return runTraced(in, p, work, filepath.Join(build, "traces"), seconds, stdout)
	}
	return runEndToEnd(in, p, work, seconds, stdout)
}
