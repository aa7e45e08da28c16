package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lasvegas"
)

// setupTrials is how many times an untraced run sets its workload up;
// setup_s is their median.
const setupTrials = 3

// workload is one named set of inputs and the ops that drive them.
type workload interface {
	// callers is the closed loop's width: each caller sends its next
	// op only after the previous one completed.
	callers() int
	// footprintOps is the timed op count after which the retained
	// footprint (rss_mb) is sampled: a count every run reaches well
	// inside its phase, so the sample covers the same work on every
	// run however fast the ops go.
	footprintOps() int64
	// setup is one set-up trial: it generates the inputs, boots what
	// the workload needs, seeds and warms it, and returns the number
	// of untimed warm-up ops. Wrong outputs are reported through
	// env.rep; the error is for an environment that cannot run.
	setup(ctx context.Context, env *env) (warmup int64, err error)
	// op runs op k for caller c; an error fails the op. parent is the
	// op's span (zero when untraced).
	op(ctx context.Context, c int, k int64, tr *tracer, parent span) error
	// begin and end bracket a measured phase: end runs the health
	// guards over it, and with layers set adds the daemon-side
	// per-layer metrics.
	begin(ctx context.Context) error
	end(ctx context.Context, ph *phase, rep *report, layers bool) error
	// spanMetrics turns the traced phase's spans into per-layer
	// metrics; layer holds the replay's costs for self times.
	spanMetrics(spans []span, layer layerCosts, rep *report)
	// replaySet is the generated campaigns the layer replay feeds
	// through the store, estimator and policy layers.
	replaySet() []*lasvegas.Campaign
	close() error
}

// env is what a set-up trial may use.
type env struct {
	o   options
	dir string // empty scratch directory of this trial
	rep *report
}

func workloadNames() []string { return []string{"paper-pipeline", "serve-cold", "serve-mixed"} }

func newWorkload(name string) workload {
	switch name {
	case "paper-pipeline":
		return &pipeline{}
	case "serve-cold":
		return &serving{kind: coldKind}
	case "serve-mixed":
		return &serving{kind: mixedKind}
	}
	return nil
}

// report accumulates one run's metrics, counts and failures.
type report struct {
	mu          sync.Mutex
	metrics     map[string]float64
	problems    []string
	notes       []string
	attempted   int64
	failed      int64
	warmupOps   int64
	timedOps    int64
	setupTrials int
	tracedOps   int64
	spans       int
	spanFile    string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// set records a metric; a non-finite value is a defect of the
// benchmark and fails the run rather than reaching the JSON encoder.
func (r *report) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	r.metrics[name] = v
}

// problem records a failed correctness check or health guard.
func (r *report) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.problems) == 0 && r.failed == 0 && r.attempted > 0
}

// phase is one timed closed-loop stretch.
type phase struct {
	nextK       int64
	elapsed     time.Duration
	ops, failed int64
	latMs       []float64 // per op, ascending
	cpu         time.Duration
	rssMB       float64 // retained footprint after footprintOps ops; 0 if not reached
	steal       float64 // share of the machine's CPU time stolen
	goBefore    goStats
	goAfter     goStats
}

func (p *phase) opsPerS() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// runPhase drives w with its callers until seconds have passed; ops in
// flight at the deadline finish and count. Op k's span id space is
// k+1, so op ids are never 0. With footprint set, the caller that
// completes op w.footprintOps() samples the retained footprint between
// its ops.
func runPhase(ctx context.Context, w workload, k0 int64, seconds float64, footprint bool, tr *tracer, rep *report) *phase {
	ph := &phase{}
	next := atomic.Int64{}
	next.Store(k0)
	var (
		wg           sync.WaitGroup
		failed, done atomic.Int64
	)
	perCaller := make([][]float64, w.callers())
	runtime.GC() // start every phase from the same heap state
	ph.goBefore = readGoStats()
	cpu0 := cpuTime()
	steal0, total0 := cpuTicks()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := range perCaller {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := next.Add(1) - 1
				sp := tr.start("op", k+1, 0)
				t0 := time.Now()
				err := w.op(ctx, c, k, tr, sp)
				perCaller[c] = append(perCaller[c], float64(time.Since(t0))/1e6)
				tr.end(sp)
				if err != nil {
					failed.Add(1)
					rep.problem("op %d: %v", k, err)
				}
				if done.Add(1) == w.footprintOps() && footprint {
					debug.FreeOSMemory()
					ph.rssMB = rssMB()
				}
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	if steal1, total1 := cpuTicks(); total1 > total0 {
		ph.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	ph.goAfter = readGoStats()
	ph.nextK = next.Load()
	for _, l := range perCaller {
		ph.latMs = append(ph.latMs, l...)
	}
	sort.Float64s(ph.latMs)
	ph.ops = int64(len(ph.latMs))
	ph.failed = failed.Load()
	return ph
}

// runBenchmark runs one workload: the set-up trials, the untimed
// warm-up inside them, the timed phase and, when traced, a traced
// phase and the layer replay.
func runBenchmark(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	dir, err := workDir(o)
	if err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(dir)

	trials := setupTrials
	if o.traced {
		trials = 1 // the traced run reports no set-up time
	}
	var (
		w             workload
		setups, walls []float64
	)
	for t := 0; t < trials; t++ {
		w = newWorkload(o.workload)
		e := &env{o: o, dir: filepath.Join(dir, fmt.Sprintf("trial%d", t)), rep: rep}
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC() // no trial pays for the last one's garbage
		cpu0, t0 := cpuTime(), time.Now()
		warm, err := w.setup(ctx, e)
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
		rep.warmupOps = warm
		if err == nil && t < trials-1 {
			err = w.close()
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("set-up trial %d: %w", t, err), w.close())
		}
	}
	rep.setupTrials = trials
	// setup_s is set-up CPU time (getrusage), as cpu_ms_per_op is: the
	// wall-clock set-up time moves with the CPU the hypervisor steals
	// (see LAYERS.md), so it is only noted.
	rep.set("setup_s", median(setups))
	rep.note("set-up trials: CPU %.4g s, wall %.4g s", setups, walls)

	if err := w.begin(ctx); err != nil {
		return nil, errors.Join(err, w.close())
	}
	ph := runPhase(ctx, w, 0, o.seconds, true, nil, rep)
	if err := w.end(ctx, ph, rep, false); err != nil {
		return nil, errors.Join(err, w.close())
	}
	// What the workload keeps alive after a fixed number of timed ops,
	// once their garbage is collected and returned: it covers the
	// set-up state and what the ops retain (the serving workloads' store
	// grows with every fresh upload), and unlike the peak it does not
	// depend on where the collector was when it was sampled.
	if ph.rssMB == 0 {
		debug.FreeOSMemory()
		ph.rssMB = rssMB()
		rep.note("rss_mb sampled after all %d timed ops, fewer than %d", ph.ops, w.footprintOps())
	}
	rep.set("rss_mb", ph.rssMB)
	rep.attempted, rep.failed, rep.timedOps = ph.ops, ph.failed, ph.ops
	rep.set("cpu_ms_per_op", float64(ph.cpu)/1e6/float64(max(ph.ops, 1)))
	// The share of the CPU time the machine gave this process's cores
	// that the workload kept busy. A regression that makes callers wait
	// without using more CPU (lost parallelism, a lock held across an
	// fsync, an extra fsync) lowers it; time the hypervisor stole is
	// taken out of what was available, so steal does not.
	avail := ph.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0)) * (1 - ph.steal)
	rep.set("cpu_busy_share", ph.cpu.Seconds()/avail)
	// Wall-clock figures the gate leaves out: on a shared virtual
	// machine they move with the host's load (see LAYERS.md). The
	// traced run reports them as fleet.* metrics.
	rep.set("fleet.ops_per_s", ph.opsPerS())
	rep.set("fleet.latency_p50_ms", quantile(ph.latMs, 0.5))
	rep.set("fleet.latency_p90_ms", quantile(ph.latMs, 0.9))
	rep.set("fleet.latency_p99_ms", quantile(ph.latMs, 0.99))
	rep.set("system.steal_share", ph.steal)
	rep.note("timed %d ops in %.3f s: %.4g ops/s, latency p50 %.4g p90 %.4g p99 %.4g ms, %.1f%% of the machine's CPU stolen, busy share %.4g",
		ph.ops, ph.elapsed.Seconds(), ph.opsPerS(), quantile(ph.latMs, 0.5), quantile(ph.latMs, 0.9),
		quantile(ph.latMs, 0.99), 100*ph.steal, ph.cpu.Seconds()/avail)

	if o.traced {
		if err := tracedPhase(ctx, o, w, ph, dir, rep); err != nil {
			return nil, errors.Join(err, w.close())
		}
	}
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	rep.set("go.peak_rss_mb", peakRSSMB())
	rep.note("peak RSS %.4g MB", peakRSSMB())
	return rep, nil
}

// tracedPhase follows the untraced phase ph with a traced phase of the
// same length, then the layer replay, and derives the per-layer
// metrics.
func tracedPhase(ctx context.Context, o options, w workload, ph *phase, dir string, rep *report) error {
	ops := float64(max(ph.ops, 1))
	rep.set("go.alloc_kb_per_op", float64(ph.goAfter.allocBytes-ph.goBefore.allocBytes)/1024/ops)
	rep.set("go.gc_cycles_per_kop", float64(ph.goAfter.gcCycles-ph.goBefore.gcCycles)*1000/ops)
	rep.set("go.gc_pause_p99_ms", pauseP99Ms(ph.goBefore, ph.goAfter))

	tr := newTracer()
	if err := w.begin(ctx); err != nil {
		return err
	}
	tph := runPhase(ctx, w, ph.nextK, o.seconds, false, tr, rep)
	if err := w.end(ctx, tph, rep, true); err != nil {
		return err
	}
	rep.attempted += tph.ops
	rep.failed += tph.failed
	rep.tracedOps = tph.ops
	// fleet.ops_per_s is the untraced phase's throughput.
	u, t := ph.opsPerS(), tph.opsPerS()
	rep.set("trace.traced_ops_per_s", t)
	rep.set("trace.overhead_share", (u-t)/u)
	// The replay runs first: route self times subtract its layer costs.
	layer, err := replay(ctx, tr, w.replaySet(), filepath.Join(dir, "replay"), rep)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	spans := tr.all()
	w.spanMetrics(spans, layer, rep)
	if err := checkNesting(spans); err != nil {
		rep.problem("trace: %v", err)
	}
	rep.spans = len(spans)
	rep.set("trace.spans", float64(len(spans)))
	rep.spanFile = filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(rep.spanFile, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
