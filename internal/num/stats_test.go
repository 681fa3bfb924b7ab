package num

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("mean = %g, want 5", got)
	}
	// Sample variance with n−1: Σ(x−5)² = 32, /7.
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("variance = %g, want %g", got, 32.0/7)
	}
}

func TestMeanEmptyAndSingle(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of empty should be NaN")
	}
	if got := Mean([]float64{3}); got != 3 {
		t.Errorf("mean of single = %g", got)
	}
	if !math.IsNaN(Variance([]float64{3})) {
		t.Error("variance of single should be NaN")
	}
}

func TestMSE(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 3}
	if got := MSE(a, b); got != 0 {
		t.Errorf("identical MSE = %g", got)
	}
	c := []float64{2, 2, 5}
	// ((1)² + 0 + (2)²)/3 = 5/3.
	if got := MSE(a, c); !almostEqual(got, 5.0/3, 1e-12) {
		t.Errorf("MSE = %g, want %g", got, 5.0/3)
	}
	if !math.IsNaN(MSE(a, []float64{1})) {
		t.Error("length mismatch should be NaN")
	}
	if !math.IsNaN(MSE(nil, nil)) {
		t.Error("empty should be NaN")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	if got := Pearson(x, y); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %g", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %g", got)
	}
}

func TestPearsonUndefined(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("zero-variance Pearson should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Error("n=1 Pearson should be NaN")
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := LinearFit(x, y)
	if !almostEqual(slope, 2, 1e-12) || !almostEqual(intercept, 1, 1e-12) {
		t.Errorf("fit = (%g, %g), want (2, 1)", slope, intercept)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	s, i := LinearFit([]float64{1, 1}, []float64{2, 3})
	if !math.IsNaN(s) || !math.IsNaN(i) {
		t.Error("vertical data should give NaN fit")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %g, want 1", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Errorf("q1 = %g, want 9", got)
	}
	// Median of sorted [1 1 2 3 4 5 6 9] = (3+4)/2.
	if got := Quantile(xs, 0.5); !almostEqual(got, 3.5, 1e-12) {
		t.Errorf("median = %g, want 3.5", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("clamp failed")
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("Wilson [%g, %g] should contain 0.5", lo, hi)
	}
	// Known value for 50/100: approximately [0.404, 0.596].
	if !almostEqual(lo, 0.40383, 1e-3) || !almostEqual(hi, 0.59617, 1e-3) {
		t.Errorf("Wilson 50/100 = [%g, %g]", lo, hi)
	}
	// Extreme proportions stay inside [0, 1] and don't collapse.
	lo, hi = WilsonInterval(0, 100)
	if lo != 0 || hi <= 0 || hi > 0.1 {
		t.Errorf("Wilson 0/100 = [%g, %g]", lo, hi)
	}
	lo, hi = WilsonInterval(100, 100)
	if hi != 1 || lo >= 1 || lo < 0.9 {
		t.Errorf("Wilson 100/100 = [%g, %g]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Errorf("Wilson with n=0 = [%g, %g], want [0, 1]", lo, hi)
	}
}

func TestWilsonIntervalShrinksWithN(t *testing.T) {
	lo1, hi1 := WilsonInterval(50, 100)
	lo2, hi2 := WilsonInterval(5000, 10000)
	if hi2-lo2 >= hi1-lo1 {
		t.Errorf("interval did not shrink: %g vs %g", hi2-lo2, hi1-lo1)
	}
}

func TestMeanLinearityProperty(t *testing.T) {
	f := func(xs []float64, a float64) bool {
		if len(xs) == 0 {
			return true
		}
		a = math.Mod(a, 100)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + a
		}
		return almostEqual(Mean(shifted), Mean(xs)+a, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearsonScaleInvarianceProperty(t *testing.T) {
	x := []float64{1, 4, 2, 8, 5, 7}
	y := []float64{2, 3, 1, 9, 4, 6}
	base := Pearson(x, y)
	f := func(scale, shift float64) bool {
		scale = math.Mod(scale, 50)
		if math.Abs(scale) < 1e-9 {
			return true
		}
		shift = math.Mod(shift, 50)
		y2 := make([]float64, len(y))
		for i := range y {
			y2[i] = scale*y[i] + shift
		}
		got := Pearson(x, y2)
		want := base
		if scale < 0 {
			want = -base
		}
		return almostEqual(got, want, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
