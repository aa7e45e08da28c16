package dist

import (
	"fmt"
	"math"
	"sort"

	"lasvegas/internal/xrand"
)

// Empirical is the nonparametric distribution of an observed runtime
// sample — the "plug-in" alternative to fitting a family (§6): all
// probability mass sits on the observations, 1/m each.
//
// The backing array is sorted once at construction and never mutated,
// which buys three O(log m)-or-better hot paths:
//
//   - CDF is a binary search;
//   - Quantile is a single index computation on the sorted array
//     (O(1)), which makes the min-sampling identity
//     Z(n) = Q(1-(1-U)^{1/n}) an O(1) draw — the engine behind
//     multiwalk.Simulate at 8192 cores;
//   - MinExpectation evaluates E[min of n draws] exactly in one O(m)
//     pass instead of Monte Carlo.
//
// An Empirical is read-only after construction and safe for
// concurrent use.
type Empirical struct {
	sorted []float64 // ascending copy of the sample
	mean   float64
	vr     float64 // population variance
}

// NewEmpirical copies and sorts the sample; it fails on empty samples
// and non-finite observations.
func NewEmpirical(sample []float64) (*Empirical, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("%w: empty sample", ErrParam)
	}
	sorted := make([]float64, len(sample))
	copy(sorted, sample)
	for _, x := range sorted {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("%w: non-finite observation %v", ErrParam, x)
		}
	}
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	var m2 float64
	for _, x := range sorted {
		d := x - mean
		m2 += d * d
	}
	return &Empirical{sorted: sorted, mean: mean, vr: m2 / float64(len(sorted))}, nil
}

// Len returns the sample size m.
func (e *Empirical) Len() int { return len(e.sorted) }

// CDF implements Dist: the fraction of observations <= x, by binary
// search on the sorted backing array.
func (e *Empirical) CDF(x float64) float64 {
	// First index with sorted[i] > x == count of observations <= x.
	n := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(n) / float64(len(e.sorted))
}

// PDF implements Dist with a central finite difference of the ECDF —
// a crude density estimate, sufficient for plotting; the model itself
// only consumes the empirical CDF, quantile and min-expectation.
func (e *Empirical) PDF(x float64) float64 {
	lo, hi := e.sorted[0], e.sorted[len(e.sorted)-1]
	span := hi - lo
	if span == 0 {
		if x == lo {
			return math.Inf(1)
		}
		return 0
	}
	h := span / math.Sqrt(float64(len(e.sorted)))
	return (e.CDF(x+h) - e.CDF(x-h)) / (2 * h)
}

// Quantile implements Dist: the inverse ECDF Q(p) = x_(⌈p·m⌉),
// computed in O(1) on the sorted array.
func (e *Empirical) Quantile(p float64) float64 {
	return e.sorted[e.AtomIndex(p)]
}

// Atoms returns the ascending support points of the step law (the
// sorted backing array); callers must not mutate it.
func (e *Empirical) Atoms() []float64 { return e.sorted }

// AtomIndex returns the index into Atoms that Quantile(p) resolves to:
// ⌈p·m⌉−1, clamped to [0, m−1].
func (e *Empirical) AtomIndex(p float64) int {
	m := len(e.sorted)
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return m - 1
	}
	idx := int(math.Ceil(p*float64(m))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= m {
		idx = m - 1
	}
	return idx
}

// Mean implements Dist (precomputed).
func (e *Empirical) Mean() float64 { return e.mean }

// Var implements Dist (precomputed population variance).
func (e *Empirical) Var() float64 { return e.vr }

// Sample implements Dist: a uniform draw over the observations.
func (e *Empirical) Sample(r *xrand.Rand) float64 {
	return e.sorted[r.Intn(len(e.sorted))]
}

// Support implements Dist.
func (e *Empirical) Support() (float64, float64) {
	return e.sorted[0], e.sorted[len(e.sorted)-1]
}

// String implements Dist.
func (e *Empirical) String() string {
	return fmt.Sprintf("Empirical(m=%d, mean=%.6g)", len(e.sorted), e.mean)
}

// MinExpectation returns the exact expectation of the minimum of n
// i.i.d. draws from the empirical distribution,
//
//	E[Z(n)] = Σᵢ x₍ᵢ₎ · [ ((m-i+1)/m)ⁿ − ((m-i)/m)ⁿ ],
//
// in one O(m) pass — the plug-in predictor's closed form, replacing
// both quadrature and Monte Carlo. It is numerically exact for any n
// (the survival powers only ever shrink).
func (e *Empirical) MinExpectation(n int) float64 {
	m := len(e.sorted)
	if n <= 1 {
		return e.mean
	}
	mf := float64(m)
	nf := float64(n)
	var sum float64
	hi := 1.0 // ((m-i)/m)^n at i = 0
	for i := 0; i < m; i++ {
		lo := math.Pow((mf-float64(i)-1)/mf, nf)
		sum += e.sorted[i] * (hi - lo)
		hi = lo
	}
	return sum
}

// TruncatedMean returns E[min(Y, c)] exactly in one O(m) pass — the
// expected cost of one run under a restart cutoff c, which is what
// makes restart-policy pricing on the plug-in law exact instead of
// quadrature over a step CDF.
func (e *Empirical) TruncatedMean(c float64) float64 {
	var sum float64
	for _, x := range e.sorted {
		if x > c {
			sum += c
			continue
		}
		sum += x
	}
	return sum / float64(len(e.sorted))
}

// MinSample draws one realization of min(X₁..Xₙ) by the inverse-CDF
// identity Z(n) = Q(1-(1-U)^{1/n}) — an O(1) draw on the sorted
// array, distribution-identical to taking the minimum of n resamples.
func (e *Empirical) MinSample(n int, r *xrand.Rand) float64 {
	u := r.Float64Open()
	v := -math.Expm1(math.Log1p(-u) / float64(n))
	return e.Quantile(v)
}
