package num

import (
	"math"
	"testing"
)

func TestExpectNormal1Moments(t *testing.T) {
	mu, sigma := 3.0, 2.0
	cases := []struct {
		name string
		g    func(float64) float64
		want float64
	}{
		{"constant", func(x float64) float64 { return 7 }, 7},
		{"identity", func(x float64) float64 { return x }, mu},
		{"square", func(x float64) float64 { return x * x }, mu*mu + sigma*sigma},
		{"cube", func(x float64) float64 { return x * x * x }, mu*mu*mu + 3*mu*sigma*sigma},
		{"fourth central", func(x float64) float64 { d := x - mu; return d * d * d * d }, 3 * sigma * sigma * sigma * sigma},
	}
	for _, c := range cases {
		if got := ExpectNormal1(c.g, mu, sigma); !almostEqual(got, c.want, 1e-10) {
			t.Errorf("%s: got %g, want %g", c.name, got, c.want)
		}
	}
}

func TestExpectNormal1DegenerateSigma(t *testing.T) {
	if got := ExpectNormal1(func(x float64) float64 { return x * x }, 5, 0); got != 25 {
		t.Errorf("degenerate sigma: got %g, want 25", got)
	}
}

func TestExpectNormalMultiDim(t *testing.T) {
	// E[X·Y + X²] for independent X~N(1,2²), Y~N(3,1²) = 1·3 + (1+4) = 8.
	got := ExpectNormal(func(x []float64) float64 {
		return x[0]*x[1] + x[0]*x[0]
	}, []float64{1, 3}, []float64{2, 1})
	if !almostEqual(got, 8, 1e-10) {
		t.Errorf("2-dim expectation = %g, want 8", got)
	}
}

func TestExpectNormalMixedDegenerate(t *testing.T) {
	// Middle dimension deterministic.
	got := ExpectNormal(func(x []float64) float64 {
		return x[0] + x[1] + x[2]*x[2]
	}, []float64{1, 10, 0}, []float64{1, 0, 3})
	if !almostEqual(got, 1+10+9, 1e-10) {
		t.Errorf("mixed expectation = %g, want 20", got)
	}
}

func TestExpectNormalPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mu/sigma length mismatch")
		}
	}()
	ExpectNormal(func(x []float64) float64 { return 0 }, []float64{1}, []float64{1, 2})
}

func TestExpectNormalGaussianOfGaussian(t *testing.T) {
	// E[exp(−X²/2)] for X~N(0,σ²) = 1/√(1+σ²) — a smooth nonpolynomial
	// where GH-7 should be near exact for modest σ.
	sigma := 0.8
	got := ExpectNormal1(func(x float64) float64 { return math.Exp(-x * x / 2) }, 0, sigma)
	want := 1 / math.Sqrt(1+sigma*sigma)
	// A 7-point rule is not exact for this integrand; ~1e-4 relative is
	// its expected accuracy at σ ≈ 0.8.
	if !almostEqual(got, want, 1e-4) {
		t.Errorf("E[exp(-X²/2)] = %g, want %g", got, want)
	}
}

func TestExpectNormalAdaptiveIndicator(t *testing.T) {
	// E[1{X ≤ a}] = Φ((a−µ)/σ): the step function that defeats fixed
	// Gauss–Hermite rules and motivated the adaptive path.
	mu, sigma, a := 1.0, 0.5, 1.3
	got := ExpectNormalAdaptive(func(x float64) float64 {
		if x <= a {
			return 1
		}
		return 0
	}, mu, sigma)
	want := StdNormalCDF((a - mu) / sigma)
	if !almostEqual(got, want, 1e-6) {
		t.Errorf("indicator expectation = %.10g, want %.10g", got, want)
	}
}

func TestExpectNormalAdaptiveMatchesGHOnSmooth(t *testing.T) {
	g := func(x float64) float64 { return math.Sin(x) + x*x }
	mu, sigma := 0.3, 1.1
	gh := ExpectNormal1(g, mu, sigma)
	ad := ExpectNormalAdaptive(g, mu, sigma)
	if !almostEqual(gh, ad, 1e-5) {
		t.Errorf("GH %g vs adaptive %g", gh, ad)
	}
}

func TestExpectNormalAdaptiveDegenerate(t *testing.T) {
	if got := ExpectNormalAdaptive(func(x float64) float64 { return 2 * x }, 4, 0); got != 8 {
		t.Errorf("degenerate adaptive = %g, want 8", got)
	}
}

// legacyExpectNormalRec is the slice-and-branch recursion ExpectNormal used
// before NormalRule: the reference for the bit-identity test below.
func legacyExpectNormalRec(g func(x []float64) float64, mu, sigma, x []float64, dim int) float64 {
	if dim == len(mu) {
		return g(x)
	}
	if sigma[dim] == 0 {
		x[dim] = mu[dim]
		return legacyExpectNormalRec(g, mu, sigma, x, dim+1)
	}
	scale := math.Sqrt2 * sigma[dim]
	x[dim] = mu[dim]
	sum := ghWeights7[0] * legacyExpectNormalRec(g, mu, sigma, x, dim+1)
	for i := 1; i < 4; i++ {
		d := scale * ghNodes7[i]
		x[dim] = mu[dim] + d
		sum += ghWeights7[i] * legacyExpectNormalRec(g, mu, sigma, x, dim+1)
		x[dim] = mu[dim] - d
		sum += ghWeights7[i] * legacyExpectNormalRec(g, mu, sigma, x, dim+1)
	}
	return sum * invSqrtPi
}

// TestExpectNormalBitIdenticalToLegacyRecursion pins the NormalRule fold to
// the recursion it replaced, bit for bit, on a non-polynomial integrand
// (where a reordered sum would show) and on every pattern of zero spreads.
// A −0 integrand must come back as −0.
func TestExpectNormalBitIdenticalToLegacyRecursion(t *testing.T) {
	g := func(x []float64) float64 {
		return math.Erf(x[0]*1e8-0.3) * math.Cos(x[1]*7e7) / (1 + x[2]*x[2]*1e14)
	}
	mu := []float64{2e-9, -3e-9, 1e-7}
	for mask := 0; mask < 8; mask++ {
		sigma := []float64{7e-9, 4e-9, 5e-8}
		for d := range sigma {
			if mask&(1<<d) != 0 {
				sigma[d] = 0
			}
		}
		got := ExpectNormal(g, mu, sigma)
		want := legacyExpectNormalRec(g, mu, sigma, make([]float64, 3), 0)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("sigma %v: ExpectNormal = %x, legacy recursion = %x", sigma, math.Float64bits(got), math.Float64bits(want))
		}
	}
	negZero := func([]float64) float64 { return math.Copysign(0, -1) }
	if got := ExpectNormal(negZero, []float64{0}, []float64{0}); !math.Signbit(got) {
		t.Errorf("zero-spread fold of −0 = %v, want −0", got)
	}
}
