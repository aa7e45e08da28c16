package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names and units, and the short test holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what an operator of the system pays, reported untraced:
// the figures that stay steady from run to run on a shared two-core
// virtual machine (see LAYERS.md for the wall-clock ones left out).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"cpu_busy_share", "share"},
	{"rss_mb", "MB"},
}

// serveRoutes are the client-side route classes of the serving
// workloads; fresh uploads and idempotent re-uploads, and cold and
// cached reads of one endpoint, are kept apart because they exercise
// different layers.
var serveRoutes = []string{
	"upload_json", "upload_ndjson", "reupload", "fit_cold", "fit_cached",
	"predict", "policy_cold", "policy_cached", "metrics",
}

// peerEndpoints maps the daemon's peer-RPC endpoint labels onto metric
// names.
var peerEndpoints = []struct{ path, name string }{
	{"/v1/campaigns", "replicate"},
	{"/v1/fit", "fit"},
	{"/v1/predict", "predict"},
	{"/v1/policy", "policy"},
	{"/v1/internal/fit-cache", "fit_cache"},
	{"/v1/internal/campaign", "campaign_fetch"},
	{"/v1/internal/digest", "digest"},
}

// fitShareEvents are the daemon's cross-replica fit single-flight
// outcomes.
var fitShareEvents = []string{"hit", "adopted", "delegated", "local"}

// perLayer is reported by the traced run. A layer a workload does not
// exercise reads 0 on that workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Solver and kernel, from the paper-pipeline op spans.
		{"collect.campaign_ms", "ms"},
		{"adaptive.iterations_per_ms", "1/ms"},
		{"adaptive.iterations_per_op", "count"},
		{"orderstat.curve_us", "us"},
		{"core.simulate_ms", "ms"},
		{"pipeline.collect_share", "share"},
		{"pipeline.policy_share", "share"},
		// Estimator and policy pricing, from the layer replay.
		{"fit.fitall_ms", "ms"},
		{"fit.sketch_fitall_ms", "ms"},
		{"fit.accept_ratio", "share"},
		{"fit.no_acceptable_share", "share"},
		{"policy.table_ms", "ms"},
		{"policy.panel_ms", "ms"},
		{"policy.simulate_ms", "ms"},
		{"policy.bootstrap_ms", "ms"},
		// Store, from the layer replay.
		{"store.encode_us", "us"},
		{"store.add_fsync_p50_ms", "ms"},
		{"store.add_fsync_p99_ms", "ms"},
		{"store.add_dedup_us", "us"},
		{"store.replay_ms", "ms"},
		{"store.digest_ms", "ms"},
	}
	// Handlers, from the client spans of the serving workloads.
	for _, r := range serveRoutes {
		defs = append(defs,
			metricDef{"serve." + r + "_p50_ms", "ms"},
			metricDef{"serve." + r + "_p99_ms", "ms"},
			metricDef{"serve." + r + "_self_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"serve.forwarded_share", "share"},
		metricDef{"policy.cached_ratio", "share"},
		metricDef{"policy.computes_per_op", "count"})
	// Fleet internals, from /v1/metrics deltas over the traced phase.
	for _, e := range peerEndpoints {
		defs = append(defs, metricDef{"peer." + e.name + "_rpcs_per_op", "count"})
	}
	defs = append(defs, metricDef{"peer.latency_p50_ms", "ms"})
	for _, e := range fitShareEvents {
		defs = append(defs, metricDef{"fitshare." + e + "_share", "share"})
	}
	defs = append(defs,
		metricDef{"antientropy.rounds", "count"},
		metricDef{"antientropy.round_ms", "ms"},
		metricDef{"obs.scrape_ms", "ms"},
		// Wall-clock throughput and tail over the untraced phase, with
		// the CPU share the hypervisor stole meanwhile.
		metricDef{"fleet.ops_per_s", "1/s"},
		metricDef{"fleet.latency_p50_ms", "ms"},
		metricDef{"fleet.latency_p90_ms", "ms"},
		metricDef{"fleet.latency_p99_ms", "ms"},
		metricDef{"system.steal_share", "share"},
		// Go runtime, over the untraced phase.
		metricDef{"go.peak_rss_mb", "MB"},
		metricDef{"go.alloc_kb_per_op", "KB"},
		metricDef{"go.gc_cycles_per_kop", "count"},
		metricDef{"go.gc_pause_p99_ms", "ms"},
		// The tracing itself.
		metricDef{"trace.traced_ops_per_s", "1/s"},
		metricDef{"trace.overhead_share", "share"},
		metricDef{"trace.spans", "count"},
	)
	return defs
}

// quantile returns the nearest-rank p-quantile of an ascending slice
// (0 for an empty one).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// sortedCopy returns xs ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// mean is the arithmetic mean (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime is the process's user+system CPU so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB is the process's current resident set size in MiB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var pages, resident int64
	if _, err := fmt.Sscan(string(data), &pages, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// cpuTicks reads the machine-wide stolen and total CPU ticks from
// /proc/stat: time the hypervisor ran something else on this
// machine's virtual CPUs, which slows every wall-clock metric.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats is a snapshot of the Go runtime counters the benchmark
// reports per op.
type goStats struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
}

var goSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = s[2].Value.Float64Histogram()
	}
	return g
}

// pauseP99Ms is the p99 GC pause, in ms, of the pauses between two
// snapshots (0 when there were none).
func pauseP99Ms(before, after goStats) float64 {
	if before.pauses == nil || after.pauses == nil {
		return 0
	}
	counts := make([]uint64, len(after.pauses.Counts))
	var total uint64
	for i, c := range after.pauses.Counts {
		if i < len(before.pauses.Counts) {
			c -= before.pauses.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := after.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.pauses.Buckets[i]
			}
			return hi * 1e3
		}
	}
	return 0
}
