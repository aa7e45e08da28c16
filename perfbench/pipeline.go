package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sync"

	"lasvegas"
	"lasvegas/internal/dist"
	"lasvegas/internal/policy"
)

// pipelineCampaigns is how many distinct seeded campaigns the
// paper-pipeline ops cycle through. Every repeat recollects from
// scratch and must reproduce the first digest exactly, which checks
// that results are a function of the seed and not of the scheduler.
const pipelineCampaigns = 32

// pipelineProblem and pipelineSize pick an instance whose 200-run
// campaign takes a fraction of a second on two cores, so a run times
// on the order of a hundred predictions.
const (
	pipelineProblem = lasvegas.Costas
	pipelineSize    = 11
	pipelineRuns    = 200
	pipelineWarmup  = 4
)

// pipelineCores are the core counts of the predicted speed-up curve.
var pipelineCores = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// pipeline is the paper's own loop through the public API, no daemon:
// each op collects a fresh sequential campaign, fits it, predicts the
// speed-up curve, measures it by min-resampling and prices the
// restart policies.
type pipeline struct {
	seed    uint64
	workers int

	mu        sync.Mutex
	digests   map[int]string             // campaign index → first digest
	campaigns map[int]*lasvegas.Campaign // campaign index → first campaign
}

func (p *pipeline) callers() int { return 1 } // the pipeline itself uses every core

// footprintOps: every campaign collected once.
func (p *pipeline) footprintOps() int64 { return pipelineCampaigns }

func (p *pipeline) setup(ctx context.Context, e *env) (int64, error) {
	p.seed = e.o.seed
	p.workers = runtime.NumCPU()
	p.digests = map[int]string{}
	p.campaigns = map[int]*lasvegas.Campaign{}
	for i := 0; i < pipelineWarmup; i++ {
		// Warm-up campaigns come from their own index space.
		if _, _, err := p.predict(ctx, -1-i, nil, span{}); err != nil {
			e.rep.problem("paper-pipeline warm-up %d: %v", i, err)
		}
	}
	return pipelineWarmup, nil
}

func (p *pipeline) op(ctx context.Context, _ int, k int64, tr *tracer, parent span) error {
	idx := int(k % pipelineCampaigns)
	digest, c, err := p.predict(ctx, idx, tr, parent)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if first, ok := p.digests[idx]; !ok {
		p.digests[idx] = digest
		p.campaigns[idx] = c
	} else if first != digest {
		return fmt.Errorf("campaign %d: digest %s differs from its first collection %s", idx, digest, first)
	}
	return nil
}

// predict runs the whole pipeline on campaign idx and returns a digest
// of everything it computed that the seed determines.
func (p *pipeline) predict(ctx context.Context, idx int, tr *tracer, parent span) (string, *lasvegas.Campaign, error) {
	seed := mix(p.seed, uint64(int64(idx)))
	pred := lasvegas.New(
		lasvegas.WithRuns(pipelineRuns),
		lasvegas.WithWorkers(p.workers),
		lasvegas.WithSeed(seed))
	op := parent.Op

	sp := tr.start("Collect", op, parent.ID)
	c, err := pred.Collect(ctx, pipelineProblem, pipelineSize)
	tr.end(sp)
	if err != nil {
		return "", nil, err
	}

	sp = tr.start("Fit", op, parent.ID)
	m, err := pred.Fit(c)
	if errors.Is(err, lasvegas.ErrNoAcceptableFit) {
		m, err = pred.PlugIn(c)
	}
	tr.end(sp)
	if err != nil {
		return "", nil, err
	}

	sp = tr.start("Curve", op, parent.ID)
	curve, err := m.Curve(ctx, pipelineCores)
	tr.end(sp)
	if err != nil {
		return "", nil, err
	}

	sp = tr.start("SimulateSpeedups", op, parent.ID)
	sims, err := pred.SimulateSpeedups(c, pipelineCores)
	tr.end(sp)
	if err != nil {
		return "", nil, err
	}

	if tr == nil {
		table, err := pred.PolicyTable(ctx, c, m)
		if err != nil {
			return "", nil, err
		}
		if err := checkTable(table); err != nil {
			return "", nil, err
		}
	} else if err := tracedPolicies(tr, c, m, op, parent.ID); err != nil {
		return "", nil, err
	}

	h := sha256.New()
	for _, v := range c.Iterations {
		writeFloat(h, v)
	}
	h.Write([]byte(m.Family()))
	h.Write([]byte(m.String()))
	for _, pt := range curve {
		writeFloat(h, float64(pt.Cores))
		writeFloat(h, pt.Speedup)
		writeFloat(h, pt.MeanZ)
	}
	for _, pt := range sims {
		writeFloat(h, pt.Speedup)
		writeFloat(h, pt.MeanZ)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), c, nil
}

// tracedPolicies is PolicyTable split at its layer calls so each gets
// a span: the closed-form panel under the model's law, then each
// policy's replay and bootstrap on the campaign's plug-in law. Replay
// and bootstrap sizes are the Predictor defaults.
func tracedPolicies(tr *tracer, c *lasvegas.Campaign, m *lasvegas.Model, op, parent int64) error {
	table := tr.start("PolicyTable", op, parent)
	defer tr.end(table)
	sp := tr.start("Policies", op, table.ID)
	evals, err := m.Policies()
	tr.end(sp)
	if err != nil {
		return err
	}
	plug, err := plugInLaw(c)
	if err != nil {
		return err
	}
	for _, e := range evals {
		pol := policy.Policy{Kind: policy.Kind(e.Policy), Cutoff: e.Cutoff, Unit: e.Unit}
		sp = tr.start("policy.Simulate", op, table.ID)
		_, err := policy.Simulate(plug, pol, 3000, uint64(op))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.start("policy.BootstrapCI", op, table.ID)
		_, err = policy.BootstrapCI(plug, c.TotalRuns(), pol, 200, 0.95, uint64(op))
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	if len(evals) != 4 {
		return fmt.Errorf("policy panel has %d rows, want 4", len(evals))
	}
	return nil
}

// plugInLaw is the law PolicyTable replays against: the empirical law
// of a raw campaign, the runtime sketch of a sketch-backed one.
func plugInLaw(c *lasvegas.Campaign) (dist.Dist, error) {
	if c.HasSketch() {
		return c.RuntimeSketch(0)
	}
	return dist.NewEmpirical(c.Iterations)
}

// checkTable checks the invariants of a policy table: the four
// policies, ranked, with the winner first and a finite no-restart
// price.
func checkTable(t *lasvegas.PolicyTable) error {
	if len(t.Rows) != 4 {
		return fmt.Errorf("policy table has %d rows, want 4", len(t.Rows))
	}
	if t.Winner != t.Rows[0].Policy {
		return fmt.Errorf("policy winner %q is not the first row %q", t.Winner, t.Rows[0].Policy)
	}
	for i, r := range t.Rows {
		if i > 0 && r.Expected < t.Rows[i-1].Expected*(1-1e-6) {
			return fmt.Errorf("policy rows out of order at %d", i)
		}
		if r.Policy == string(policy.NoRestart) && math.IsInf(r.Expected, 0) {
			return errors.New("no-restart price is infinite")
		}
	}
	return nil
}

func (p *pipeline) begin(context.Context) error                      { return nil }
func (p *pipeline) end(context.Context, *phase, *report, bool) error { return nil }
func (p *pipeline) close() error                                     { return nil }

// replaySet is the distinct campaigns the run collected, in index
// order.
func (p *pipeline) replaySet() []*lasvegas.Campaign {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*lasvegas.Campaign
	for i := 0; i < pipelineCampaigns; i++ {
		if c, ok := p.campaigns[i]; ok {
			out = append(out, c)
		}
	}
	return out
}

func (p *pipeline) spanMetrics(spans []span, _ layerCosts, rep *report) {
	spans = opSpans(spans)
	collect := durations(spans, "Collect")
	rep.set("collect.campaign_ms", quantile(collect, 0.5))
	rep.set("orderstat.curve_us", quantile(durations(spans, "Curve"), 0.5)*1e3)
	rep.set("core.simulate_ms", quantile(durations(spans, "SimulateSpeedups"), 0.5))

	var opMs, collectMs, policyMs float64
	for _, d := range durations(spans, "op") {
		opMs += d
	}
	for _, d := range collect {
		collectMs += d
	}
	for _, d := range durations(spans, "PolicyTable") {
		policyMs += d
	}
	if opMs > 0 {
		rep.set("pipeline.collect_share", collectMs/opMs)
		rep.set("pipeline.policy_share", policyMs/opMs)
	}

	// Iterations are exact per campaign, so the per-op mean over the
	// distinct campaigns is a count that a pure speed change must not
	// move.
	var iters float64
	for i := 0; i < pipelineCampaigns; i++ {
		iters += p.itersOf(i)
	}
	n := len(p.replaySet())
	if n > 0 {
		rep.set("adaptive.iterations_per_op", iters/float64(n))
	}
	if collectMs > 0 {
		// Work per wall-clock time over the traced ops' collections.
		var tracedIters float64
		for _, s := range spans {
			if s.Name == "Collect" {
				tracedIters += p.itersOf(int((s.Op - 1) % pipelineCampaigns))
			}
		}
		rep.set("adaptive.iterations_per_ms", tracedIters/collectMs)
	}
	if n < pipelineCampaigns {
		rep.note("only %d of %d campaigns collected: adaptive.iterations_per_op covers those", n, pipelineCampaigns)
	}
}

// itersOf is the total iteration count of campaign idx's first
// collection, 0 before it is collected.
func (p *pipeline) itersOf(idx int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s float64
	if c, ok := p.campaigns[idx]; ok {
		for _, v := range c.Iterations {
			s += v
		}
	}
	return s
}

// mix derives an independent 64-bit seed from a root seed and an
// index (splitmix64 finalizer).
func mix(seed, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + i + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func writeFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}
