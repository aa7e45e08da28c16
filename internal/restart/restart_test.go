package restart

import (
	"errors"
	"math"
	"testing"

	"lasvegas/internal/dist"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol*(1+math.Abs(want)) {
		t.Fatalf("%s: got %.10g, want %.10g", msg, got, want)
	}
}

// TestExponentialMemoryless: for the unshifted exponential, restarts
// are exactly neutral — E[T(c)] = 1/λ for every cutoff.
func TestExponentialMemoryless(t *testing.T) {
	d, _ := dist.NewExponential(0.001)
	for _, c := range []float64{50, 500, 5000, 50000} {
		e, err := ExpectedRuntime(d, c)
		if err != nil {
			t.Fatalf("c=%v: %v", c, err)
		}
		approx(t, e, 1000, 1e-6, "memoryless expected runtime")
	}
}

// TestShiftedExponentialRestartsHurt: each restart repays the x0
// entry cost, so E[T(c)] > E[Y] for any finite cutoff and the optimal
// policy is to never restart.
func TestShiftedExponentialRestartsHurt(t *testing.T) {
	d, _ := dist.NewShiftedExponential(100, 1e-3)
	meanY := d.Mean() // 1100
	for _, c := range []float64{150, 400, 2000, 20000} {
		e, err := ExpectedRuntime(d, c)
		if err != nil {
			t.Fatalf("c=%v: %v", c, err)
		}
		if e < meanY*(1-1e-9) {
			t.Errorf("cutoff %v: E[T]=%v beats E[Y]=%v for a shifted exponential", c, e, meanY)
		}
	}
	opt, err := OptimalCutoff(d)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(opt.Cutoff, 1) {
		t.Errorf("optimal cutoff %v, want +Inf (never restart)", opt.Cutoff)
	}
	approx(t, opt.Expected, meanY, 1e-6, "never-restart expectation")
	approx(t, opt.Gain, 1, 1e-9, "no gain")
}

// TestHeavyTailRestartsHelp: a high-σ lognormal has a heavy tail;
// a finite cutoff must beat running to completion.
func TestHeavyTailRestartsHelp(t *testing.T) {
	d, _ := dist.NewLogNormal(0, 5, 2.5)
	opt, err := OptimalCutoff(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(opt.Cutoff, 1) {
		t.Fatal("no finite optimal cutoff found for a heavy-tailed law")
	}
	if opt.Gain < 1.5 {
		t.Errorf("restart gain %v, expected substantial (>1.5) for σ=2.5 lognormal", opt.Gain)
	}
	// The optimum must actually be a minimum: nearby cutoffs are worse.
	for _, factor := range []float64{0.25, 4} {
		e, err := ExpectedRuntime(d, opt.Cutoff*factor)
		if err != nil {
			t.Fatal(err)
		}
		if e < opt.Expected*(1-1e-6) {
			t.Errorf("cutoff %v×%v beats the reported optimum", opt.Cutoff, factor)
		}
	}
}

// TestLevyFiniteCutoff: with an infinite mean, any sensible cutoff
// gives finite expected runtime — the textbook argument for restarts.
func TestLevyFiniteCutoff(t *testing.T) {
	d, _ := dist.NewLevy(0, 100)
	e, err := ExpectedRuntime(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(e, 1) || e <= 0 {
		t.Errorf("E[T(1000)] = %v for Lévy", e)
	}
}

func TestExpectedRuntimeMatchesMonteCarloFormula(t *testing.T) {
	// Cross-check the integral formula against the equivalent
	// geometric-trials decomposition E[T] = c·(1-F)/F + E[Y | Y ≤ c]
	// evaluated by direct numerical integration for a Weibull.
	d, _ := dist.NewWeibull(0.7, 100)
	c := 150.0
	got, err := ExpectedRuntime(d, c)
	if err != nil {
		t.Fatal(err)
	}
	// E[Y | Y ≤ c]·F(c) = ∫₀ᶜ t f(t) dt = c·F(c) − ∫₀ᶜ F (by parts)
	fc := d.CDF(c)
	want := c*(1-fc)/fc + (c*fc-integralCDF(t, d, c))/fc
	approx(t, got, want, 1e-6, "two formulations agree")
}

func integralCDF(t *testing.T, d dist.Dist, c float64) float64 {
	t.Helper()
	const steps = 200000
	h := c / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += d.CDF((float64(i) + 0.5) * h)
	}
	return sum * h
}

func TestExpectedRuntimeValidation(t *testing.T) {
	d, _ := dist.NewExponential(1)
	if _, err := ExpectedRuntime(nil, 1); err == nil {
		t.Error("nil distribution accepted")
	}
	if _, err := ExpectedRuntime(d, 0); err == nil {
		t.Error("zero cutoff accepted")
	}
	if _, err := ExpectedRuntime(d, math.Inf(1)); err == nil {
		t.Error("infinite cutoff accepted")
	}
	sh, _ := dist.NewShiftedExponential(100, 1)
	if _, err := ExpectedRuntime(sh, 50); !errors.Is(err, ErrNeverSucceeds) {
		t.Errorf("cutoff below support: %v", err)
	}
}
