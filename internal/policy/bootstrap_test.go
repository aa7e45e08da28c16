package policy

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"lasvegas/internal/dist"
	"lasvegas/internal/sketch"
	"lasvegas/internal/survival"
	"lasvegas/internal/xrand"
)

// TestLubySequence pins the generator to the known prefix of the Luby
// sequence and to its defining property: the term at index 2^k − 1
// (1-based) is 2^(k−1), the first appearance of that term.
func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1}
	seq := lubySeq{1, 1}
	for i, w := range want {
		if got := int64(1) << seq.next(); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
	seq = lubySeq{1, 1}
	next := 1 // 2^k − 1 for the next k to check
	for i, k := 1, 1; k <= 20; i++ {
		term := seq.next()
		if i == next {
			if term != k-1 {
				t.Fatalf("luby(2^%d−1 = %d) = 2^%d, want 2^%d", k, i, term, k-1)
			}
			k++
			next = 1<<k - 1
		} else if term >= k-1 {
			t.Fatalf("luby(%d) = 2^%d appears before index 2^%d−1", i, term, k)
		}
	}
}

// stepSources returns the plug-in laws BootstrapCI resamples from.
// The large Empirical has more atoms than countLimit allows even at
// the bootstrap cap; on the others only tiny resamples sort indices.
func stepSources(t *testing.T) map[string]dist.Dist {
	t.Helper()
	r := xrand.New(5)
	// Rounded runtimes: iteration counts tie, as real campaigns do.
	sample := make([]float64, 300)
	for i := range sample {
		sample[i] = math.Ceil(r.Exp() * 80)
	}
	large := make([]float64, countLimit*maxBootstrapSample+1000)
	for i := range large {
		large[i] = math.Ceil(r.Exp() * 5000)
	}
	raw, err := os.ReadFile("../../testdata/campaign_costas13_censored.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Iterations []float64 `json:"iterations"`
		Censored   []int     `json:"censored"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	flags := make([]bool, len(c.Iterations))
	for _, i := range c.Censored {
		flags[i] = true
	}
	km, err := survival.NewKaplanMeier(c.Iterations, flags)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := sketch.New(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.AddAll(sample); err != nil {
		t.Fatal(err)
	}
	compacted, err := sketch.New(32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := compacted.Add(math.Ceil(r.Exp() * 200)); err != nil {
			t.Fatal(err)
		}
	}
	if exact.ErrorBound() != 0 || compacted.ErrorBound() == 0 {
		t.Fatalf("sketch modes: exact bound %v, compacted bound %v", exact.ErrorBound(), compacted.ErrorBound())
	}
	return map[string]dist.Dist{
		"empirical":        must(dist.NewEmpirical(sample)),
		"empirical-large":  must(dist.NewEmpirical(large)),
		"kaplan-meier":     km,
		"sketch-exact":     exact,
		"sketch-compacted": compacted,
	}
}

// referenceResample is the sort-based resample the counting one must
// reproduce: n inverse-CDF draws, sorted.
func referenceResample(src dist.Dist, r *xrand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = src.Quantile(r.Float64Open())
	}
	sort.Float64s(xs)
	return xs
}

// referenceBootstrapCI is BootstrapCI with one sort.Float64s per
// resample in place of the counting expansion.
func referenceBootstrapCI(src dist.Dist, n int, p Policy, resamples int, level float64, seed uint64) CI {
	n = min(n, maxBootstrapSample)
	r := xrand.New(seed)
	prices := make([]float64, resamples)
	for b := range prices {
		v, err := price(stepLaw{referenceResample(src, r, n)}, p)
		if err != nil {
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
	}
}

// TestResampleMatchesSortReference: every resample equals, bit for
// bit, the sorted resample the same draws give — on every plug-in law,
// for n below, at and above the atom count and above the bootstrap
// cap, so on both sides of countLimit.
func TestResampleMatchesSortReference(t *testing.T) {
	for name, src := range stepSources(t) {
		step := src.(stepSource)
		atoms := step.Atoms()
		m := len(atoms)
		for _, n := range []int{1, m / 3, m, m + 17, 3 * maxBootstrapSample} {
			n = min(n, maxBootstrapSample)
			idx, counts := make([]int32, n), make([]int32, m)
			xs := make([]float64, n)
			got, want := xrand.New(uint64(n)), xrand.New(uint64(n))
			for b := 0; b < 20; b++ {
				resample(step, atoms, got, idx, counts, xs)
				ref := referenceResample(src, want, n)
				for i := range xs {
					if math.Float64bits(xs[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("%s n=%d resample %d: xs[%d] = %v, sorted reference %v", name, n, b, i, xs[i], ref[i])
					}
				}
			}
			for j, c := range counts {
				if c != 0 {
					t.Fatalf("%s n=%d: counts[%d] = %d left behind", name, n, j, c)
				}
			}
		}
	}
}

// TestBootstrapCIMatchesSortReference: the interval is bit-identical
// to the sort-based bootstrap for every policy kind on every plug-in
// law.
func TestBootstrapCIMatchesSortReference(t *testing.T) {
	for name, src := range stepSources(t) {
		m := len(src.(stepSource).Atoms())
		evals, err := Panel(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, n := range []int{m / 3, m, m + 17, 3 * maxBootstrapSample} {
			for _, e := range evals {
				got, err := BootstrapCI(src, n, e.Policy, 60, 0.9, 7)
				if err != nil {
					t.Fatalf("%s n=%d %s: %v", name, n, e.Policy.Kind, err)
				}
				want := referenceBootstrapCI(src, n, e.Policy, 60, 0.9, 7)
				if math.Float64bits(got.Lo) != math.Float64bits(want.Lo) ||
					math.Float64bits(got.Hi) != math.Float64bits(want.Hi) || got.Level != want.Level {
					t.Errorf("%s n=%d %s: %+v, sorted reference %+v", name, n, e.Policy.Kind, got, want)
				}
			}
		}
	}
}

// TestBootstrapCIRejectsSmoothSource: only step laws resample.
func TestBootstrapCIRejectsSmoothSource(t *testing.T) {
	d := must(dist.NewExponential(0.01))
	if _, err := BootstrapCI(d, 100, Policy{Kind: NoRestart}, 10, 0.9, 1); err == nil {
		t.Fatal("exponential source accepted")
	}
	empty, err := sketch.New(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BootstrapCI(empty, 100, Policy{Kind: NoRestart}, 10, 0.9, 1); err == nil {
		t.Fatal("empty sketch accepted")
	}
}
