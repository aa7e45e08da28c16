// Package restart analyses the other classic way to exploit a Las
// Vegas runtime distribution: cut a run off after a fixed budget and
// start over. The Adaptive Search solver already exposes the knob
// (Params.MaxIterationsPerRestart); this package computes what the
// knob is worth from the same fitted distribution the speed-up
// predictor uses, so multi-walk parallelism and sequential restarts
// can be compared on equal footing:
//
//   - for an exponential runtime (memoryless — the paper's Costas
//     case) restarts are exactly neutral: E[T(c)] = E[Y] for every
//     cutoff;
//   - for a shifted exponential (the paper's ALL-INTERVAL case)
//     restarts strictly hurt — each restart repays the x0 entry cost;
//   - for heavy-tailed laws (e.g. lognormal with large σ) a finite
//     optimal cutoff beats running to completion, sometimes by a lot.
//
// The expected runtime of the fixed-cutoff-c restart strategy is the
// classical Luby–Sinclair–Zuckerman formula
//
//	E[T(c)] = ( c − ∫₀ᶜ F(t) dt ) / F(c).
package restart

import (
	"errors"
	"fmt"
	"math"

	"lasvegas/internal/dist"
	"lasvegas/internal/optim"
	"lasvegas/internal/quad"
)

// ErrNeverSucceeds reports a cutoff below the distribution's support,
// where a run can never finish and restarting loops forever.
var ErrNeverSucceeds = errors.New("restart: cutoff below the minimal runtime")

// ExpectedRuntime returns E[T(c)], the expected total runtime of
// restarting after every c time units (same unit as the
// distribution, e.g. iterations) until one run succeeds.
func ExpectedRuntime(d dist.Dist, cutoff float64) (float64, error) {
	if d == nil {
		return 0, errors.New("restart: nil distribution")
	}
	if !(cutoff > 0) || math.IsInf(cutoff, 0) || math.IsNaN(cutoff) {
		return 0, fmt.Errorf("restart: cutoff %v", cutoff)
	}
	fc := d.CDF(cutoff)
	if fc <= 0 {
		return 0, ErrNeverSucceeds
	}
	lo, _ := d.Support()
	if math.IsInf(lo, -1) || lo < 0 {
		lo = 0
	}
	if cutoff <= lo {
		return 0, ErrNeverSucceeds
	}
	// ∫₀ᶜ F = ∫_{lo}^{c} F (F is zero below the support).
	integral, err := quad.TanhSinh(d.CDF, lo, cutoff, 1e-10)
	if err != nil {
		return 0, fmt.Errorf("restart: integrating CDF: %w", err)
	}
	return (cutoff - integral) / fc, nil
}

// Optimum is the result of a cutoff search.
type Optimum struct {
	Cutoff   float64 // argmin cutoff (may be +Inf: "never restart")
	Expected float64 // E[T] at the optimum
	Gain     float64 // E[Y] / Expected; ≤ 1+ε means restarts don't help
}

// OptimalCutoff minimizes E[T(c)] over c by golden-section search on
// a log-spaced cutoff axis spanning the distribution's quantile range
// [q(1e-4), q(1-1e-6)]. When no interior cutoff beats running to
// completion, it reports Cutoff = +Inf with Expected = E[Y].
func OptimalCutoff(d dist.Dist) (Optimum, error) {
	if d == nil {
		return Optimum{}, errors.New("restart: nil distribution")
	}
	meanY := d.Mean()
	if math.IsNaN(meanY) {
		return Optimum{}, errors.New("restart: distribution has no mean")
	}
	loQ := d.Quantile(1e-4)
	hiQ := d.Quantile(1 - 1e-6)
	if !(loQ > 0) {
		loQ = math.Max(1e-9, d.Quantile(0.01))
	}
	if !(hiQ > loQ) || math.IsInf(hiQ, 1) {
		hiQ = math.Max(loQ*1e6, meanY*100)
	}
	obj := func(logc float64) float64 {
		e, err := ExpectedRuntime(d, math.Exp(logc))
		if err != nil {
			return math.Inf(1)
		}
		return e
	}
	logc, err := optim.BrentMin(obj, math.Log(loQ), math.Log(hiQ), 1e-8)
	if err != nil {
		return Optimum{}, fmt.Errorf("restart: cutoff search: %w", err)
	}
	c := math.Exp(logc)
	e, err := ExpectedRuntime(d, c)
	if err != nil {
		return Optimum{}, err
	}
	// An infinite mean (e.g. Lévy) makes any finite cutoff a win;
	// otherwise compare against running to completion.
	if !math.IsInf(meanY, 1) && e >= meanY*(1-1e-9) {
		return Optimum{Cutoff: math.Inf(1), Expected: meanY, Gain: 1}, nil
	}
	return Optimum{Cutoff: c, Expected: e, Gain: meanY / e}, nil
}
