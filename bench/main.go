// Command bench is the end-to-end benchmark of the DEX reproduction.
// It drives four closed-loop churn workloads through the public dex
// façade, checks the outcome, and prints the metrics as JSON:
//
//	go run . --workload steady-uniform --seed 1 --seconds 10 --trace 0
//
// Untraced runs (--trace 0) report the end-to-end metrics named in
// BENCHMARK.json; traced runs (--trace 1) replay every operation on
// shadow layers and report the per-layer ones. --workload all runs
// every workload in turn. See README.md for the workloads, the metrics
// and how to read --trace-out.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is the machine-read last line of a run's output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the generated operations and of the engine")
	secs := fs.Int("seconds", 10, "scales each workload's op budget; one window takes about this long on the reference host")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceOut := fs.String("trace-out", "", "traced runs: write sampled spans as JSONL to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *name == "" || *secs < 1 || (*trace != 0 && *trace != 1) || (*traceOut != "" && *trace != 1) {
		fmt.Fprintln(stderr, "usage: bench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		todo = []workload{w}
	}

	env := envStamp()
	fmt.Fprintln(stdout, "# env", env)
	// Spans are kept in memory and written when the run ends.
	var spans *bytes.Buffer
	if *traceOut != "" {
		spans = new(bytes.Buffer)
	}

	total := report{Correct: true, Metrics: map[string]metric{}}
	var last report
	for _, w := range todo {
		if spans != nil {
			fmt.Fprintf(spans, "{\"workload\":%q,\"seed\":%d,\"env\":%q}\n", w.name, *seed, env)
		}
		ro := runOpts{seed: *seed, traced: *trace == 1}
		if spans != nil {
			ro.spans = spans
		}
		res, err := runWorkload(w, fullSize(w, *secs), ro)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "%s: FAILED CHECK: %s\n", w.name, p)
		}
		fmt.Fprintf(stdout, "# digest %s %s ops=%d\n", w.name, res.digest, res.attempted)
		if res.raw != nil {
			line, _ := json.Marshal(res.raw) // finite floats always marshal
			fmt.Fprintf(stdout, "# measured %s slowdown=%.4f %s\n", w.name, res.slowdown, line)
		}
		last = report{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics}
		line, _ := json.Marshal(last) // plain structs of finite floats always marshal
		fmt.Fprintf(stdout, "# %s %s\n", w.name, line)
		total.Correct = total.Correct && last.Correct
		total.Attempted += last.Attempted
		total.Failed += last.Failed
		for k, m := range res.metrics {
			total.Metrics[w.name+"."+k] = m
		}
	}
	if len(todo) == 1 {
		total = last
	}
	line, _ := json.Marshal(total)
	fmt.Fprintln(stdout, string(line))
	if spans != nil {
		if err := os.WriteFile(*traceOut, spans.Bytes(), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if !total.Correct {
		return 1
	}
	return 0
}

// envStamp names the host and build a run was measured on.
func envStamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return fmt.Sprintf("gomaxprocs=%d numcpu=%d cpu=%q go=%s rev=%s%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, runtime.Version(), rev, dirty)
}
