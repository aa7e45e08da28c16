package policy

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"lasvegas/internal/dist"
	"lasvegas/internal/xrand"
)

// maxAttempts bounds a single replayed campaign: a schedule whose
// cutoffs never reach the law's support would otherwise loop forever.
const maxAttempts = 1 << 20

// SimResult summarizes a replay.
type SimResult struct {
	Reps   int
	Mean   float64 // mean total runtime-to-success across reps
	StdErr float64 // standard error of that mean
}

// Simulate replays policy p against distribution d: each rep draws
// runs by inverse CDF (for an Empirical law this literally resamples
// the campaign's observed runtimes), truncates every run at the
// schedule's cutoff, and accumulates cost until a run finishes within
// its cutoff. The xrand stream makes the replay deterministic per
// seed — the independent Monte Carlo check on the closed-form prices.
func Simulate(d dist.Dist, p Policy, reps int, seed uint64) (SimResult, error) {
	if d == nil {
		return SimResult{}, errors.New("policy: nil distribution")
	}
	if reps <= 0 {
		return SimResult{}, fmt.Errorf("policy: reps %d", reps)
	}
	if err := p.validate(); err != nil {
		return SimResult{}, err
	}
	fixed := math.Inf(1) // no-restart
	if p.Kind == FixedCutoff || p.Kind == FittedOptimal {
		fixed = p.Cutoff
	}
	r := xrand.New(seed)
	var sum, sumsq float64
	for rep := 0; rep < reps; rep++ {
		var t float64
		done := false
		seq := lubySeq{1, 1}
		for i := 1; i <= maxAttempts; i++ {
			c := fixed
			if p.Kind == Luby {
				c = p.Unit * float64(uint64(1)<<seq.next())
			}
			y := d.Quantile(r.Float64Open())
			if y <= c {
				t += y
				done = true
				break
			}
			t += c
		}
		if !done {
			return SimResult{}, fmt.Errorf("policy: replay of %s saw no success in %d runs (cutoff below the law's support?)", p.Kind, maxAttempts)
		}
		sum += t
		sumsq += t * t
	}
	nf := float64(reps)
	mean := sum / nf
	variance := sumsq/nf - mean*mean
	if variance < 0 {
		variance = 0
	}
	return SimResult{Reps: reps, Mean: mean, StdErr: math.Sqrt(variance / nf)}, nil
}

// CI is a bootstrap confidence interval on a policy's expected
// runtime. Bounds may be +Inf when a resample puts the whole sample
// above a fixed cutoff.
type CI struct {
	Lo, Hi float64
	Level  float64
}

// maxBootstrapSample caps the per-resample size so sketch-backed
// campaigns with millions of runs bootstrap in bounded time; beyond
// a couple thousand draws the resampling noise, not the cap, is the
// binding uncertainty.
const maxBootstrapSample = 2048

// stepSource is a step law whose quantile function reads off an atom:
// Atoms is ascending and Quantile(p) == Atoms()[AtomIndex(p)] for
// 0 < p < 1. dist.Empirical, survival.KaplanMeier and sketch.Sketch
// implement it — every plug-in law.
type stepSource interface {
	Atoms() []float64
	AtomIndex(p float64) int
}

// BootstrapCI prices policy p on `resamples` bootstrap resamples of
// size n drawn from src by inverse CDF (with replacement — the
// standard bootstrap when src is the campaign's Empirical law) and
// returns the percentile interval at the given level. The policy's
// cutoffs stay fixed across resamples: the interval quantifies
// sampling noise in the *price* of a committed schedule, not in the
// schedule choice. Each resample is priced exactly via its own step
// law, never by quadrature.
//
// src must be a step law (see stepSource); any other law is an error.
// A resample is built without sorting values: each draw's atom index
// is counted, and expanding the counts in atom order gives the sorted
// resample in O(n + m) for m atoms (the campaign's runs, or a
// sketch's retained items). Past 32 atoms per draw the indices are
// sorted instead, so a million-run campaign still costs O(n log n).
func BootstrapCI(src dist.Dist, n int, p Policy, resamples int, level float64, seed uint64) (CI, error) {
	if src == nil {
		return CI{}, errors.New("policy: nil distribution")
	}
	step, ok := src.(stepSource)
	if !ok {
		return CI{}, fmt.Errorf("policy: bootstrap source %v is not a step law", src)
	}
	atoms := step.Atoms()
	if len(atoms) == 0 {
		return CI{}, errors.New("policy: bootstrap source has no atoms")
	}
	if n <= 0 {
		return CI{}, fmt.Errorf("policy: bootstrap sample size %d", n)
	}
	if resamples <= 0 {
		return CI{}, fmt.Errorf("policy: resamples %d", resamples)
	}
	if !(level > 0 && level < 1) {
		return CI{}, fmt.Errorf("policy: level %v", level)
	}
	if err := p.validate(); err != nil {
		return CI{}, err
	}
	if n > maxBootstrapSample {
		n = maxBootstrapSample
	}
	r := xrand.New(seed)
	prices := make([]float64, resamples)
	idx := make([]int32, n)
	counts := make([]int32, len(atoms))
	xs := make([]float64, n)
	for b := 0; b < resamples; b++ {
		resample(step, atoms, r, idx, counts, xs)
		v, err := price(stepLaw{xs}, p)
		if err != nil {
			// Only the Luby series can error on a step law (unit
			// stuck below the resample's minimum): price it infinite
			// rather than aborting the whole interval.
			v = math.Inf(1)
		}
		prices[b] = v
	}
	sort.Float64s(prices)
	alpha := (1 - level) / 2
	return CI{
		Lo:    prices[percentileIndex(alpha, resamples)],
		Hi:    prices[percentileIndex(1-alpha, resamples)],
		Level: level,
	}, nil
}

// countLimit bounds the atoms per draw for which resample counts:
// walking m counts costs about as much as sorting n indices at
// m = 32·n (measured at 200 and 2048 draws), and more beyond.
const countLimit = 32

// resample fills xs with one bootstrap resample of step, in ascending
// order: len(xs) inverse-CDF draws, as atom indices. Few atoms per draw
// are counted and the counts expanded in atom order, O(n + m); many
// are sorted as indices, O(n log n) whatever m is. Either gives what
// sorting the drawn values gives, since atoms ascend and a sorted
// multiset of non-NaN floats is unique. idx (len(xs)) and counts
// (len(atoms), all zero) are scratch; counts is left zeroed.
func resample(step stepSource, atoms []float64, r *xrand.Rand, idx, counts []int32, xs []float64) {
	for i := range idx {
		idx[i] = int32(step.AtomIndex(r.Float64Open()))
	}
	if len(atoms) > countLimit*len(xs) {
		slices.Sort(idx)
		for i, j := range idx {
			xs[i] = atoms[j]
		}
		return
	}
	for _, j := range idx {
		counts[j]++
	}
	i := 0
	for j, c := range counts {
		for range c {
			xs[i] = atoms[j]
			i++
		}
	}
	clear(counts)
}

func percentileIndex(q float64, m int) int {
	idx := int(math.Ceil(q*float64(m))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= m {
		idx = m - 1
	}
	return idx
}

// stepLaw prices a sorted bootstrap resample exactly: uniform mass
// 1/n per point, truncated means by one bounded pass.
type stepLaw struct{ xs []float64 } // ascending

func (s stepLaw) mean() float64 {
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s stepLaw) cdf(c float64) float64 {
	n := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > c })
	return float64(n) / float64(len(s.xs))
}

func (s stepLaw) truncMean(c float64) (float64, error) {
	var sum float64
	for _, x := range s.xs {
		if x > c {
			sum += c
			continue
		}
		sum += x
	}
	return sum / float64(len(s.xs)), nil
}
