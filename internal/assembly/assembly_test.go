package assembly

import (
	"math"
	"testing"

	"yap/internal/core"
	"yap/internal/units"
)

func baseConfig() Config {
	return Config{
		Bonding:    core.Baseline(),
		Process:    ChipletProcess{DefectDensity: 0.1 * units.PerSquareCentimeter, Clustering: 3},
		SystemArea: 1000 * units.SquareMillimeter,
	}
}

func TestChipletProcessYield(t *testing.T) {
	p := ChipletProcess{DefectDensity: 0.1 * units.PerSquareCentimeter, Clustering: 3}
	// A·D = 100 mm² · 0.1 cm⁻² = 1e-4 m² · 1e3 m⁻² = 0.1.
	want := math.Pow(1+0.1/3, -3)
	if got := p.Yield(100 * units.SquareMillimeter); math.Abs(got-want) > 1e-12 {
		t.Errorf("NB yield = %g, want %g", got, want)
	}
	// Poisson limit.
	p.Clustering = 0
	if got := p.Yield(100 * units.SquareMillimeter); math.Abs(got-math.Exp(-0.1)) > 1e-12 {
		t.Errorf("Poisson yield = %g", got)
	}
	// Zero area yields 1; negative yields 0.
	if p.Yield(0) != 1 {
		t.Error("zero-area yield != 1")
	}
	if p.Yield(-1) != 0 {
		t.Error("negative-area yield != 0")
	}
	// Clustering helps at fixed A·D (defects pile onto fewer dies).
	nb := ChipletProcess{DefectDensity: 1e3, Clustering: 2}
	po := ChipletProcess{DefectDensity: 1e3}
	if nb.Yield(1e-3) <= po.Yield(1e-3) {
		t.Error("negative binomial should beat Poisson at equal A·D")
	}
}

func TestEvaluateD2WBasics(t *testing.T) {
	cfg := baseConfig()
	r, err := EvaluateD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sites != 10 {
		t.Errorf("sites = %d, want 10", r.Sites)
	}
	// Site yield = Y_chip · Y_D2W without KGD.
	bond, _ := cfg.Bonding.EvaluateD2W()
	wantSite := cfg.Process.Yield(100*units.SquareMillimeter) * bond.Total
	if math.Abs(r.SiteYield-wantSite) > 1e-12 {
		t.Errorf("site yield = %g, want %g", r.SiteYield, wantSite)
	}
	if math.Abs(r.SystemYield-math.Pow(wantSite, 10)) > 1e-12 {
		t.Errorf("system yield = %g", r.SystemYield)
	}
}

func TestKnownGoodDieRemovesChipYield(t *testing.T) {
	cfg := baseConfig()
	plain, err := EvaluateD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.KnownGoodDie = true
	kgd, err := EvaluateD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kgd.SiteYield != kgd.BondYield {
		t.Errorf("KGD site yield %g should equal bond yield %g", kgd.SiteYield, kgd.BondYield)
	}
	if kgd.SystemYield <= plain.SystemYield {
		t.Error("KGD should improve system yield")
	}
}

func TestSparesImproveYield(t *testing.T) {
	cfg := baseConfig()
	r0, err := EvaluateD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SpareSites = 2
	r2, err := EvaluateD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.SystemYield <= r0.SystemYield {
		t.Errorf("spares did not help: %g vs %g", r2.SystemYield, r0.SystemYield)
	}
	if r2.SystemYield > 1 {
		t.Errorf("system yield %g > 1", r2.SystemYield)
	}
}

func TestEvaluateW2WStack(t *testing.T) {
	cfg := baseConfig()
	cfg.Tiers = 3
	r, err := EvaluateW2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bond, _ := cfg.Bonding.EvaluateW2W()
	chip := cfg.Process.Yield(100 * units.SquareMillimeter)
	wantSite := math.Pow(chip, 3) * math.Pow(bond.Total, 2)
	if math.Abs(r.SiteYield-wantSite) > 1e-12 {
		t.Errorf("W2W site yield = %g, want %g", r.SiteYield, wantSite)
	}
	// Default tiers is 2.
	cfg.Tiers = 0
	r2, err := EvaluateW2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.SiteYield <= r.SiteYield {
		t.Error("2-tier stack should beat 3-tier stack")
	}
}

func TestW2WNoKGDPenalty(t *testing.T) {
	// The classic W2W-vs-D2W tradeoff: with poor front-end yield, D2W +
	// KGD beats W2W stacking even though W2W bonds align better.
	cfg := baseConfig()
	cfg.Process.DefectDensity = 1 * units.PerSquareCentimeter // poor process
	cfg.KnownGoodDie = true
	d2w, err := EvaluateD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2w, err := EvaluateW2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d2w.SystemYield <= w2w.SystemYield {
		t.Errorf("KGD D2W (%g) should beat untested W2W stacking (%g) at high D0",
			d2w.SystemYield, w2w.SystemYield)
	}
}

func TestAtLeastKOfN(t *testing.T) {
	cases := []struct {
		p    float64
		k, n int
		want float64
	}{
		{0.5, 1, 1, 0.5},
		{0.5, 1, 2, 0.75}, // 1 − 0.25
		{0.5, 2, 2, 0.25},
		{0.9, 2, 3, 0.972}, // 3·0.81·0.1 + 0.729
		{0.3, 0, 5, 1},
		{0.3, 6, 5, 0},
		{0, 1, 5, 0},
		{1, 5, 5, 1},
	}
	for _, c := range cases {
		if got := atLeastKOfN(c.p, c.k, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("atLeastKOfN(%g, %d, %d) = %g, want %g", c.p, c.k, c.n, got, c.want)
		}
	}
}

func TestAtLeastKOfNMatchesBruteForce(t *testing.T) {
	// Exhaustive check against direct binomial summation.
	binom := func(n, k int) float64 {
		r := 1.0
		for i := 0; i < k; i++ {
			r *= float64(n-i) / float64(i+1)
		}
		return r
	}
	for _, p := range []float64{0.1, 0.5, 0.93} {
		for n := 1; n <= 12; n++ {
			for k := 0; k <= n; k++ {
				var want float64
				for i := k; i <= n; i++ {
					want += binom(n, i) * math.Pow(p, float64(i)) * math.Pow(1-p, float64(n-i))
				}
				got := atLeastKOfN(p, k, n)
				if math.Abs(got-want) > 1e-10 {
					t.Fatalf("atLeastKOfN(%g,%d,%d) = %g, want %g", p, k, n, got, want)
				}
			}
		}
	}
}

func TestCheapestChipletAreaInteriorOptimum(t *testing.T) {
	// The economically meaningful optimum: with known-good-die testing and
	// a defective front-end process, small chiplets waste bonds and big
	// chiplets waste front-end silicon — the yielded-cost optimum is
	// interior.
	cfg := baseConfig()
	cfg.KnownGoodDie = true
	cfg.Process.DefectDensity = 2 * units.PerSquareCentimeter
	cfg.Process.Clustering = 0 // Poisson: harshest on large dies
	areas := []float64{4, 10, 20, 40, 50, 100, 200, 500}
	for i := range areas {
		areas[i] *= units.SquareMillimeter
	}
	best, cost, err := CheapestChipletArea(cfg, areas)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(cost, 1) {
		t.Fatal("infinite optimal cost")
	}
	if best == areas[0] || best == areas[len(areas)-1] {
		t.Errorf("cost optimum at sweep boundary (%g m²) — expected interior tradeoff", best)
	}
	// The cost at the optimum beats both extremes by a real margin.
	for _, extreme := range []float64{areas[0], areas[len(areas)-1]} {
		c := cfg
		c.Bonding = cfg.Bonding.WithDieArea(extreme)
		extremeCost, err := YieldedCostD2W(c)
		if err != nil {
			t.Fatal(err)
		}
		if extremeCost <= cost {
			t.Errorf("extreme area %g cost %g not worse than optimum %g", extreme, extremeCost, cost)
		}
	}
}

func TestYieldedCostD2W(t *testing.T) {
	cfg := baseConfig()
	r, err := EvaluateD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := YieldedCostD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(r.Sites) * 100 * units.SquareMillimeter / r.SystemYield
	if math.Abs(cost-want) > 1e-12*want {
		t.Errorf("cost = %g, want %g", cost, want)
	}
	// KGD divides the committed silicon by the chiplet yield.
	cfg.KnownGoodDie = true
	rk, err := EvaluateD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	costKGD, err := YieldedCostD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantKGD := float64(rk.Sites) * 100 * units.SquareMillimeter / (rk.ChipletYield * rk.SystemYield)
	if math.Abs(costKGD-wantKGD) > 1e-12*wantKGD {
		t.Errorf("KGD cost = %g, want %g", costKGD, wantKGD)
	}
}

func TestTSVYieldTerm(t *testing.T) {
	cfg := baseConfig()
	base, err := EvaluateD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10,000 TSVs at 1e-6 failure each: site yield scales by
	// (1−1e-6)^10000 ≈ e^-0.01.
	cfg.TSVsPerChiplet = 10000
	cfg.TSVFailureProb = 1e-6
	withTSV, err := EvaluateD2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantScale := math.Exp(10000 * math.Log1p(-1e-6))
	if math.Abs(withTSV.SiteYield-base.SiteYield*wantScale) > 1e-12 {
		t.Errorf("TSV site yield = %g, want %g", withTSV.SiteYield, base.SiteYield*wantScale)
	}
	if withTSV.SystemYield >= base.SystemYield {
		t.Error("TSV failures should reduce system yield")
	}
	// W2W stacks pay the TSV toll per bonded interface.
	cfg.Tiers = 3
	w, err := EvaluateW2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TSVsPerChiplet = 0
	wNo, err := EvaluateW2W(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRatio := math.Pow(wantScale, 2) // t−1 = 2 interfaces
	if math.Abs(w.SiteYield/wNo.SiteYield-wantRatio) > 1e-9 {
		t.Errorf("W2W TSV scaling = %g, want %g", w.SiteYield/wNo.SiteYield, wantRatio)
	}
}

func TestTSVValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.TSVsPerChiplet = -1
	if _, err := EvaluateD2W(cfg); err == nil {
		t.Error("negative TSV count accepted")
	}
	cfg = baseConfig()
	cfg.TSVFailureProb = 1
	if _, err := EvaluateD2W(cfg); err == nil {
		t.Error("certain TSV failure accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.SystemArea = 0
	if _, err := EvaluateD2W(cfg); err == nil {
		t.Error("accepted zero system area")
	}
	cfg = baseConfig()
	cfg.Process.DefectDensity = -1
	if _, err := EvaluateW2W(cfg); err == nil {
		t.Error("accepted negative defect density")
	}
	cfg = baseConfig()
	cfg.SpareSites = -1
	if _, err := EvaluateD2W(cfg); err == nil {
		t.Error("accepted negative spares")
	}
	cfg = baseConfig()
	cfg.Bonding.DefectShape = 1
	if _, err := EvaluateD2W(cfg); err == nil {
		t.Error("accepted invalid bonding params")
	}
}

func TestResultString(t *testing.T) {
	r, err := EvaluateD2W(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}
