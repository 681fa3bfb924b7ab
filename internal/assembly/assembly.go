// Package assembly extends YAP with the system assembly yield model the
// paper names as future work (§V: "incorporating YAP into a comprehensive
// system assembly yield model", cf. Graening et al. [10]). It combines
//
//   - chiplet (front-end) yield from the negative-binomial defect model of
//     Stapper, Y_chip = (1 + A·D₀/α)^(−α), which reduces to the Poisson
//     model as the clustering parameter α → ∞;
//   - bonding yield from the YAP core model (Y_W2W or Y_D2W);
//   - the assembly topology: a 2.5D D2W system of n chiplets (with
//     optional known-good-die testing and spare sites) or a W2W 3D stack
//     of T tiers diced into stacked units.
//
// The package answers the question the paper's §IV-C opens — how chiplet
// size trades chip yield against bond count — including the
// "how small is too small" optimum that only appears once front-end yield
// enters the product.
package assembly

import (
	"fmt"
	"math"

	"yap/internal/core"
)

// ChipletProcess describes the front-end (pre-bond) defectivity of the
// chiplets being integrated.
type ChipletProcess struct {
	// DefectDensity is D₀: fatal front-end defects per unit area (m⁻²).
	DefectDensity float64
	// Clustering is the negative-binomial α; typical logic processes use
	// α ≈ 2–5. Zero or negative selects the Poisson limit.
	Clustering float64
}

// Yield returns the chiplet yield for a die of the given area.
func (c ChipletProcess) Yield(area float64) float64 {
	if area < 0 {
		return 0
	}
	ad := area * c.DefectDensity
	if c.Clustering <= 0 {
		return math.Exp(-ad) // Poisson limit
	}
	return math.Pow(1+ad/c.Clustering, -c.Clustering)
}

// Config describes one system assembly scenario.
type Config struct {
	// Bonding is the hybrid-bonding process; its DieWidth/DieHeight define
	// the chiplet footprint.
	Bonding core.Params
	// Process is the chiplet front-end defectivity.
	Process ChipletProcess
	// SystemArea is the total system silicon area per tier (m²).
	SystemArea float64
	// Tiers is the stack height for W2W 3D integration (≥ 2); ignored for
	// D2W. Zero defaults to 2.
	Tiers int
	// KnownGoodDie marks D2W chiplets as pre-tested: failed chiplets are
	// never bonded, so front-end yield affects cost but not system yield.
	KnownGoodDie bool
	// SpareSites is the number of redundant chiplet sites in a D2W
	// assembly: the system survives if at least the required number of
	// sites (out of required+spare) are good.
	SpareSites int
	// TSVsPerChiplet and TSVFailureProb model the through-silicon-via
	// yield component the paper's introduction names alongside chiplet
	// and bonding yield: each stacked interface routes TSVsPerChiplet
	// vias that fail independently with TSVFailureProb. Zero count
	// disables the term.
	TSVsPerChiplet int
	// TSVFailureProb is the per-TSV failure probability.
	TSVFailureProb float64
}

func (c Config) validate() error {
	if c.SystemArea <= 0 {
		return fmt.Errorf("assembly: non-positive system area %g", c.SystemArea)
	}
	if c.Process.DefectDensity < 0 {
		return fmt.Errorf("assembly: negative chip defect density %g", c.Process.DefectDensity)
	}
	if c.SpareSites < 0 {
		return fmt.Errorf("assembly: negative spare sites %d", c.SpareSites)
	}
	if c.TSVsPerChiplet < 0 {
		return fmt.Errorf("assembly: negative TSV count %d", c.TSVsPerChiplet)
	}
	if c.TSVFailureProb < 0 || c.TSVFailureProb >= 1 {
		return fmt.Errorf("assembly: TSV failure probability %g outside [0, 1)", c.TSVFailureProb)
	}
	return nil
}

// tsvYield returns the all-TSVs-work probability of one stacked interface,
// (1−p)^n via log1p for deep-tail accuracy.
func (c Config) tsvYield() float64 {
	if c.TSVsPerChiplet == 0 || c.TSVFailureProb == 0 {
		return 1
	}
	return math.Exp(float64(c.TSVsPerChiplet) * math.Log1p(-c.TSVFailureProb))
}

func (c Config) tiers() int {
	if c.Tiers < 2 {
		return 2
	}
	return c.Tiers
}

// Result is one assembly evaluation.
type Result struct {
	// ChipletYield is the front-end yield of one chiplet.
	ChipletYield float64
	// BondYield is the per-bond-event yield (Y_D2W per chiplet placement,
	// or Y_W2W per stacked interface).
	BondYield float64
	// Sites is the number of chiplet sites (D2W) or stacked units (W2W)
	// the system needs.
	Sites int
	// SiteYield is the probability one site ends up fully functional.
	SiteYield float64
	// SystemYield is the probability the whole assembly works.
	SystemYield float64
}

func (r Result) String() string {
	return fmt.Sprintf("Y_chip=%.4f Y_bond=%.4f sites=%d Y_site=%.4f Y_sys=%.4f",
		r.ChipletYield, r.BondYield, r.Sites, r.SiteYield, r.SystemYield)
}

// EvaluateD2W computes the system yield of a 2.5D D2W assembly: n =
// ⌈SystemArea/chiplet area⌉ required sites, each succeeding with
// probability Y_site = Y_chip·Y_D2W (or just Y_D2W under known-good-die
// testing), with optional spare sites.
func EvaluateD2W(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	bond, err := cfg.Bonding.EvaluateD2W()
	if err != nil {
		return Result{}, err
	}
	chipArea := cfg.Bonding.DieWidth * cfg.Bonding.DieHeight
	n := int(math.Ceil(cfg.SystemArea / chipArea))
	if n < 1 {
		n = 1
	}
	r := Result{
		ChipletYield: cfg.Process.Yield(chipArea),
		BondYield:    bond.Total,
		Sites:        n,
	}
	r.SiteYield = r.BondYield * cfg.tsvYield()
	if !cfg.KnownGoodDie {
		r.SiteYield *= r.ChipletYield
	}
	r.SystemYield = atLeastKOfN(r.SiteYield, n, n+cfg.SpareSites)
	return r, nil
}

// EvaluateW2W computes the system yield of a W2W 3D integration: wafers
// are stacked in T tiers and diced into stacked units of the chiplet
// footprint. Dies cannot be tested before stacking (no known-good-die), so
// a unit works only if all T tiers' dies and all T−1 bonded interfaces
// work: Y_site = Y_chip^T · Y_W2W^(T−1). The system needs
// ⌈SystemArea/(chiplet area)⌉ units of stacked silicon; spare sites do not
// apply (units are committed at wafer level).
func EvaluateW2W(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	bond, err := cfg.Bonding.EvaluateW2W()
	if err != nil {
		return Result{}, err
	}
	chipArea := cfg.Bonding.DieWidth * cfg.Bonding.DieHeight
	t := cfg.tiers()
	n := int(math.Ceil(cfg.SystemArea / chipArea))
	if n < 1 {
		n = 1
	}
	r := Result{
		ChipletYield: cfg.Process.Yield(chipArea),
		BondYield:    bond.Total,
		Sites:        n,
	}
	r.SiteYield = math.Pow(r.ChipletYield, float64(t)) *
		math.Pow(r.BondYield*cfg.tsvYield(), float64(t-1))
	r.SystemYield = math.Pow(r.SiteYield, float64(n))
	return r, nil
}

// atLeastKOfN returns P(X ≥ k) for X ~ Binomial(n, p): the probability
// that enough sites are functional when spares are available. Computed by
// summing the upper tail with incremental pmf terms, which is stable for
// the n ≤ 10³ range assemblies live in.
func atLeastKOfN(p float64, k, n int) float64 {
	if k <= 0 {
		return 1
	}
	if n < k {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	// pmf(n, n) = p^n; walk downward multiplying by the pmf ratio
	// pmf(i)/pmf(i+1) = (i+1)/(n-i) · (1-p)/p.
	logPmf := float64(n) * math.Log(p)
	pmf := math.Exp(logPmf)
	sum := pmf
	q := (1 - p) / p
	for i := n - 1; i >= k; i-- {
		pmf *= float64(i+1) / float64(n-i) * q
		sum += pmf
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// YieldedCostD2W returns the expected silicon area consumed per *good*
// system — the "how small is too small" cost metric of Graening et al.
// [10] restated in area units (multiply by cost per wafer area for money):
//
//   - with known-good-die testing, each placed chiplet costs 1/Y_chip
//     chiplets of silicon (failed dies are scrapped before bonding) and a
//     failed assembly scraps all placed silicon: cost =
//     n·A / (Y_chip · Y_sys);
//   - without testing, untested silicon is committed directly:
//     cost = n·A / Y_sys.
//
// Small chiplets waste little front-end silicon but multiply bonding risk;
// large chiplets scrap whole expensive dies — the cost optimum is interior,
// unlike the raw yield optimum.
func YieldedCostD2W(cfg Config) (float64, error) {
	r, err := EvaluateD2W(cfg)
	if err != nil {
		return 0, err
	}
	if r.SystemYield <= 0 {
		return math.Inf(1), nil
	}
	chipArea := cfg.Bonding.DieWidth * cfg.Bonding.DieHeight
	committed := float64(r.Sites+cfg.SpareSites) * chipArea
	if cfg.KnownGoodDie {
		if r.ChipletYield <= 0 {
			return math.Inf(1), nil
		}
		committed /= r.ChipletYield
	}
	return committed / r.SystemYield, nil
}

// CheapestChipletArea sweeps square chiplet areas and returns the one
// minimizing YieldedCostD2W, with that cost (m² of silicon per good
// system).
func CheapestChipletArea(cfg Config, areas []float64) (bestArea, bestCost float64, err error) {
	if len(areas) == 0 {
		return 0, 0, fmt.Errorf("assembly: no candidate areas")
	}
	bestCost = math.Inf(1)
	for _, a := range areas {
		c := cfg
		c.Bonding = cfg.Bonding.WithDieArea(a)
		cost, err := YieldedCostD2W(c)
		if err != nil {
			return 0, 0, fmt.Errorf("assembly: area %g: %w", a, err)
		}
		if cost < bestCost {
			bestCost = cost
			bestArea = a
		}
	}
	return bestArea, bestCost, nil
}
