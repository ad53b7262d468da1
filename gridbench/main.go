// Command gridbench measures a live Padico grid end to end and layer by
// layer. It boots loopback grids of padico-d daemons inside one process,
// drives one closed-loop workload from an attached operator seat — one
// caller that waits for every reply — checks every answer against its own
// input generator, and prints the figures as one JSON object on its last
// line of output.
//
//	gridbench --workload control|directory|middleware --seed N --seconds S --trace 0|1
//	gridbench --repeat K --workload control|directory|middleware|all --seed N --seconds S
//
// With --trace 1 the run also records a span around every call it makes
// into a layer and reports per-layer figures instead of end-to-end ones.
// --repeat runs each workload K times with seeds N..N+K-1, each in a fresh
// process, and prints the median and quartiles of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// procs is the number of cores the grid may use. The seat and every daemon
// share one: on this 2-vCPU shared host, goroutine hand-offs between cores
// made each call's latency depend on what the other vCPU's neighbours were
// doing, and alternating runs showed control throughput varying 9 % at two
// cores against 4.6 % at one.
const procs = 1

// gcPercent is the collector's target for the whole process. The daemons,
// the seat and the benchmark's own input model share one heap here; at the
// default target the collector ran about once a second on the directory
// workload, marking tens of megabytes each time, and run-to-run spread on
// this shared host tripled. The collector's work stays measured, as
// runtime.gc_per_kcall and runtime.alloc_kb_per_call.
const gcPercent = 400

var workloads = map[string]func(*run) error{
	"control":    runControl,
	"directory":  runDirectory,
	"middleware": runMiddleware,
}

func main() {
	workload := flag.String("workload", "", "control, directory or middleware (all with --repeat)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed loop, in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	repeat := flag.Int("repeat", 0, "run each workload this many times and summarize")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gcPercent)
	if err := checkTree(); err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*workload, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "gridbench:", err)
			os.Exit(1)
		}
		return
	}
	f, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := runOne(*workload, f, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// checkTree refuses to run outside a Padico source tree: the benchmark
// measures the program built from the tree it sits in.
func checkTree() error {
	if _, err := os.Stat(filepath.Join("internal", "deploy", "wall.go")); err != nil {
		return fmt.Errorf("run from the root of a Padico source tree: %w", err)
	}
	return nil
}

// endToEnd and perLayer are the metric names a run must report, untraced
// and traced, whatever its workload.
var endToEnd = []string{"setup_s", "ops_per_s", "p50_us", "recovery_s", "payload_mb_s"}

func runOne(name string, f func(*run) error, seed int64, seconds float64, traced bool) (*result, error) {
	r := newRun(seed, seconds, traced)
	if err := f(r); err != nil {
		return nil, err
	}
	res := &result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if !traced {
		for _, m := range endToEnd {
			v, ok := r.metrics[m]
			if !ok {
				return nil, fmt.Errorf("metric %s was not measured", m)
			}
			res.Metrics[m] = v
		}
		return res, nil
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := r.rec.write(path); err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		v, ok := r.metrics[m]
		if !ok {
			return nil, fmt.Errorf("layer metric %s was not measured", m)
		}
		res.Metrics[m] = v
	}
	return res, nil
}
