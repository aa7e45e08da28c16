// Command perfbench is the repository's end-to-end benchmark: three
// seeded workloads that time the paper's prediction pipeline and the
// replicated lvserve daemon, check every output, and (with -trace 1)
// break the cost down by layer.
//
// Run it from the repository root through the wrapper, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
//
// Workloads (see LAYERS.md for why each exists and which layer
// metrics should move which end-to-end metric):
//
//	paper-pipeline  Collect → Fit → Curve → SimulateSpeedups → PolicyTable
//	                through the public API, no daemon
//	serve-cold      fresh campaigns through upload → fit → predict → policy
//	                on an in-process 3-replica, k=2 lvserve group
//	serve-mixed     cached reads beside fresh uploads on the same group
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with -trace 0 the
// metrics are the end-to-end set, with -trace 1 the per-layer set.
// Provenance and a human summary precede it. The exit code is 0 only
// when every correctness check and health guard passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of each timed phase, in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root (holds testdata/ and internal/serve/testdata/)")
	fs.StringVar(&o.work, "work", ".bench_build", "scratch directory for data dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	o.traced = *traceFlag == 1
	if newWorkload(o.workload) == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n",
			o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be > 0")
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep, err := runBenchmark(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printReport(stdout, o, rep)
	if !rep.correct() {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "perfbench: FAIL: %s\n", p)
		}
		return 1
	}
	return 0
}

// options are the parsed command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	root     string
	work     string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance records what produced the numbers, so two recordings can
// be compared only when they were made alike.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SetupRuns  int     `json:"setup_trials"`
	WarmupOps  int64   `json:"warmup_ops"`
	TimedOps   int64   `json:"timed_ops"`
	TracedOps  int64   `json:"traced_ops,omitempty"`
	Spans      int     `json:"spans,omitempty"`
	SpanFile   string  `json:"span_file,omitempty"`
}

func printReport(w io.Writer, o options, rep *report) {
	prov := provenance{
		Workload:   o.workload,
		Seed:       o.seed,
		Traced:     o.traced,
		Seconds:    o.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		SetupRuns:  rep.setupTrials,
		WarmupOps:  rep.warmupOps,
		TimedOps:   rep.timedOps,
		TracedOps:  rep.tracedOps,
		Spans:      rep.spans,
		SpanFile:   rep.spanFile,
	}
	pj, _ := json.Marshal(prov) // plain struct: cannot fail
	fmt.Fprintf(w, "# provenance %s\n", pj)
	for _, line := range rep.notes {
		fmt.Fprintf(w, "# %s\n", line)
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	res := result{
		Correct:   rep.correct(),
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := rep.metrics[d.name] // a layer this workload does not exercise reads 0
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "# %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	rj, _ := json.Marshal(res) // finite floats only: see report.set
	fmt.Fprintf(w, "%s\n", rj)
}

// cpuModel reads the CPU model name, or "unknown" off Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a plain source checkout without .git has none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// workDir returns a fresh scratch directory for one run under o.work.
func workDir(o options) (string, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(o.work, fmt.Sprintf("run-%s-", o.workload))
}
