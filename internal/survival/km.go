package survival

import (
	"fmt"
	"math"
	"sort"

	"lasvegas/internal/xrand"
)

// KaplanMeier is the product-limit estimator of a right-censored
// runtime sample, exposed as a dist.Dist so censored campaigns can
// feed the same plug-in prediction path as complete ones.
//
// The backing arrays mirror dist.Empirical's sorted design: one entry
// per observation (events and censorings interleaved in time order),
// with the estimated survival Ŝ after each observation precomputed.
// That buys the same hot paths:
//
//   - CDF is a binary search over the sorted observations;
//   - Quantile is a binary search over the precomputed CDF steps
//     (O(1) on censoring-free samples, where the steps are uniform);
//   - MinExpectation evaluates E[min of n draws] exactly in one O(m)
//     pass over the survival steps — the censored counterpart of
//     dist.Empirical.MinExpectation.
//
// Two conventions, both standard:
//
//   - ties between an event and a censoring are resolved event-first
//     (a run finishing at t proves the runtime reaches t; a run cut
//     off at t only proves it exceeds t);
//   - when the largest observation is censored the curve never
//     reaches zero, so the leftover probability mass is assigned to
//     that largest observation (Efron's tail convention). Mean and
//     MinExpectation are therefore *restricted* means — biased low
//     when the censoring fraction is high, which is exactly why the
//     parametric censored-MLE fits exist alongside.
//
// On a sample with no censoring at all, every derived quantity (CDF,
// Quantile, Mean, Var, MinExpectation, Sample) reproduces
// dist.Empirical bit for bit: the survival steps are computed as
// exact integer ratios, not running products.
//
// A KaplanMeier is read-only after construction and safe for
// concurrent use.
type KaplanMeier struct {
	xs   []float64 // ascending observations (events before ties' censorings)
	surv []float64 // Ŝ after observation i (surv[m-1] forced to 0, Efron)
	cdf  []float64 // 1 - surv, exact i/m ratios on censoring-free prefixes
	m    int
	ev   int     // number of events (uncensored observations)
	lo   int     // index of the first event (support left edge)
	tail float64 // Ŝ at the largest observation before the Efron drop

	mean, vr float64
}

// NewKaplanMeier estimates the product-limit law of a right-censored
// sample: values[i] is the observed runtime, censored[i] marks runs
// cut off at that value. It fails on empty samples, negative or NaN
// observations, mismatched slice lengths, and samples with no
// uncensored observation (ErrAllCensored).
func NewKaplanMeier(values []float64, censored []bool) (*KaplanMeier, error) {
	sorted, events, err := sortedObs(values, censored)
	if err != nil {
		return nil, err
	}
	m := len(sorted)
	k := &KaplanMeier{
		xs:   make([]float64, m),
		surv: make([]float64, m),
		cdf:  make([]float64, m),
		m:    m,
		ev:   events,
	}
	// Survival recursion Ŝ ← Ŝ·(nᵢ-1)/nᵢ at each event (risk set
	// nᵢ = m-i when observations are processed one at a time; tied
	// events just apply consecutive factors). While no censoring has
	// been seen the product telescopes to an exact integer ratio,
	// which is what makes the censoring-free case bit-identical to
	// dist.Empirical; after the first censoring the recursion runs
	// multiplicatively, which is the textbook estimator.
	mf := float64(m)
	s := 1.0
	seenEvents, seenCensored := 0, false
	for i, o := range sorted {
		k.xs[i] = o.x
		if !o.censored {
			if seenEvents == 0 {
				k.lo = i
			}
			seenEvents++
			if seenCensored {
				risk := float64(m - i)
				s *= (risk - 1) / risk
			} else {
				s = float64(m-i-1) / mf
			}
		} else {
			seenCensored = true
		}
		k.surv[i] = s
		if seenCensored {
			k.cdf[i] = 1 - s
		} else {
			k.cdf[i] = float64(i+1) / mf
		}
	}
	// Efron tail: drop the curve to zero at the largest observation
	// so the law is proper and every moment below is finite.
	k.tail = k.surv[m-1]
	k.surv[m-1] = 0
	k.cdf[m-1] = 1
	k.mean, k.vr = k.moments()
	return k, nil
}

// moments computes the restricted mean and variance from the step
// masses. The censoring-free case intentionally replays
// dist.Empirical's exact two-pass computation (sum/m, then centered
// second moment) instead of summing masses, so the two estimators
// agree bit for bit there.
func (k *KaplanMeier) moments() (mean, vr float64) {
	if k.ev == k.m {
		var sum float64
		for _, x := range k.xs {
			sum += x
		}
		mean = sum / float64(k.m)
		var m2 float64
		for _, x := range k.xs {
			d := x - mean
			m2 += d * d
		}
		return mean, m2 / float64(k.m)
	}
	hi := 1.0
	for i, x := range k.xs {
		mean += x * (hi - k.surv[i])
		hi = k.surv[i]
	}
	hi = 1.0
	for i, x := range k.xs {
		d := x - mean
		vr += d * d * (hi - k.surv[i])
		hi = k.surv[i]
	}
	return mean, vr
}

// Len returns the sample size m (events plus censorings).
func (k *KaplanMeier) Len() int { return k.m }

// Events returns the number of uncensored observations.
func (k *KaplanMeier) Events() int { return k.ev }

// CensoredCount returns the number of censored observations.
func (k *KaplanMeier) CensoredCount() int { return k.m - k.ev }

// TailMass returns the survival probability left at the largest
// observation before the Efron drop — the mass the estimator cannot
// place from the data alone (0 when the largest observation is an
// event).
func (k *KaplanMeier) TailMass() float64 { return k.tail }

// CDF implements dist.Dist: the product-limit estimate F̂(x), by
// binary search over the sorted observations.
func (k *KaplanMeier) CDF(x float64) float64 {
	n := sort.Search(k.m, func(i int) bool { return k.xs[i] > x })
	if n == 0 {
		return 0
	}
	return k.cdf[n-1]
}

// PDF implements dist.Dist with the same central finite difference of
// the step CDF as dist.Empirical — a plotting aid; prediction only
// consumes CDF, Quantile and MinExpectation.
func (k *KaplanMeier) PDF(x float64) float64 {
	lo, hi := k.xs[0], k.xs[k.m-1]
	span := hi - lo
	if span == 0 {
		if x == lo {
			return math.Inf(1)
		}
		return 0
	}
	h := span / math.Sqrt(float64(k.m))
	return (k.CDF(x+h) - k.CDF(x-h)) / (2 * h)
}

// Quantile implements dist.Dist: inf{x : F̂(x) ≥ p}. On a
// censoring-free sample this is dist.Empirical's O(1) index formula;
// otherwise a binary search over the precomputed CDF steps.
func (k *KaplanMeier) Quantile(p float64) float64 {
	return k.xs[k.AtomIndex(p)]
}

// Atoms returns the ascending observations the step law sits on
// (censored ones carry no mass); callers must not mutate it.
func (k *KaplanMeier) Atoms() []float64 { return k.xs }

// AtomIndex returns the index into Atoms that Quantile(p) resolves to.
// p ≤ 0 maps to the first event, the support's left edge.
func (k *KaplanMeier) AtomIndex(p float64) int {
	if k.ev == k.m {
		if p <= 0 {
			return 0
		}
		if p >= 1 {
			return k.m - 1
		}
		idx := int(math.Ceil(p*float64(k.m))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= k.m {
			idx = k.m - 1
		}
		return idx
	}
	if p <= 0 {
		return k.lo
	}
	if p >= 1 {
		return k.m - 1
	}
	// cdf is non-decreasing with cdf[m-1] = 1, so the search always
	// lands; censored entries repeat their predecessor's value, so
	// the first hit is an event (or the Efron-forced last step).
	return sort.Search(k.m, func(i int) bool { return k.cdf[i] >= p })
}

// Mean implements dist.Dist: the restricted mean survival time
// Σ x·ΔF̂ (precomputed).
func (k *KaplanMeier) Mean() float64 { return k.mean }

// Var implements dist.Dist (precomputed, same restriction as Mean).
func (k *KaplanMeier) Var() float64 { return k.vr }

// Sample implements dist.Dist: a draw from the estimated step law.
// Censoring-free samples draw uniformly over the observations
// (matching dist.Empirical); otherwise inverse-CDF on a uniform.
func (k *KaplanMeier) Sample(r *xrand.Rand) float64 {
	if k.ev == k.m {
		return k.xs[r.Intn(k.m)]
	}
	return k.Quantile(r.Float64Open())
}

// Support implements dist.Dist: the smallest event value to the
// largest observation.
func (k *KaplanMeier) Support() (float64, float64) {
	return k.xs[k.lo], k.xs[k.m-1]
}

// String implements dist.Dist.
func (k *KaplanMeier) String() string {
	if k.ev == k.m {
		return fmt.Sprintf("KaplanMeier(m=%d, mean=%.6g)", k.m, k.mean)
	}
	return fmt.Sprintf("KaplanMeier(m=%d, censored=%d, mean=%.6g)", k.m, k.m-k.ev, k.mean)
}

// TruncatedMean returns E[min(Y, c)] exactly from the survival steps:
// Σ_{xᵢ≤c} xᵢ·(Ŝᵢ₋₁ − Ŝᵢ) + c·Ŝ(c) — the expected cost of one run
// under a restart cutoff c, with censored observations contributing
// zero event mass exactly as in MinExpectation. Keeping this exact
// spares restart-policy pricing a quadrature over the step CDF.
func (k *KaplanMeier) TruncatedMean(c float64) float64 {
	var sum float64
	hi := 1.0
	for i := 0; i < k.m; i++ {
		if k.xs[i] > c {
			break
		}
		sum += k.xs[i] * (hi - k.surv[i])
		hi = k.surv[i]
	}
	return sum + c*hi
}

// MinExpectation returns the exact expectation of the minimum of n
// i.i.d. draws from the product-limit law,
//
//	E[Z(n)] = Σᵢ xᵢ · (Ŝᵢ₋₁ⁿ − Ŝᵢⁿ),
//
// in one O(m) pass over the survival steps — the censored counterpart
// of dist.Empirical.MinExpectation (and bit-identical to it when the
// sample has no censoring). Censored observations contribute exactly
// zero mass, so the loop needs no flag checks.
func (k *KaplanMeier) MinExpectation(n int) float64 {
	if n <= 1 {
		return k.mean
	}
	nf := float64(n)
	var sum float64
	hi := 1.0
	for i := 0; i < k.m; i++ {
		lo := math.Pow(k.surv[i], nf)
		sum += k.xs[i] * (hi - lo)
		hi = lo
	}
	return sum
}
