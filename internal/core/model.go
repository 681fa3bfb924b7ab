package core

import (
	"fmt"
	"math"

	"yap/internal/layout"
	"yap/internal/overlay"
)

// Breakdown is the per-mechanism yield decomposition of one evaluation.
// Total is the product of the three mechanism terms (Eq. 22 / Eq. 28 under
// the paper's independence assumption).
type Breakdown struct {
	// Overlay is Y_ovl (Eq. 8 for W2W, Eq. 23 averaged over placements
	// for D2W).
	Overlay float64
	// Recess is Y_cr (Eq. 14, identical for both bonding styles).
	Recess float64
	// Defect is Y_df (Eq. 21 for W2W, Eq. 27 for D2W).
	Defect float64
	// Total is the combined bonding yield.
	Total float64
}

func (b Breakdown) String() string {
	return fmt.Sprintf("Y_ovl=%.6f Y_cr=%.6f Y_df=%.6f Y=%.6f",
		b.Overlay, b.Recess, b.Defect, b.Total)
}

// Limiter names the mechanism contributing the largest yield loss.
func (b Breakdown) Limiter() string {
	switch math.Min(b.Overlay, math.Min(b.Recess, b.Defect)) {
	case b.Overlay:
		return "overlay"
	case b.Recess:
		return "recess"
	default:
		return "defect"
	}
}

// Evaluate evaluates the full bonding-yield model of one bonding style:
// mode "w2w" is Eq. 22, Y_W2W = Y_ovl,W2W · Y_cr,W2W · Y_df,W2W, and mode
// "d2w" is Eq. 28, its D2W counterpart. It is the analytic counterpart of
// sim.Run. Every mechanism is computed over the effective pad layout
// (YAP+), the uniform die being its one-region case: the recess term is
// the product of per-region die yields at each region's Cu density, the
// defect term sums per-region kill rates Λ (the W2W tail model, or the D2W
// main-void model at each region's pitch, pad size and pad count) before
// the Poisson exponent, and the overlay term is the region product of pad
// survival averaged over the wafer's dies (W2W) or over the die-to-die
// placement variation (D2W, with the rotation/magnification reference
// radius at the wafer radius where Table I characterizes them). An unknown
// mode is an error.
func (p Params) Evaluate(mode string) (Breakdown, error) {
	if mode != "w2w" && mode != "d2w" {
		return Breakdown{}, fmt.Errorf("core: unknown mode %q (want w2w or d2w)", mode)
	}
	if err := p.Validate(); err != nil {
		return Breakdown{}, err
	}
	grids := p.RegionGrids()
	dp := p.DefectParams()
	var lsum float64
	for _, g := range grids {
		w, h := g.Rect.Width(), g.Rect.Height()
		if mode == "w2w" {
			lsum += dp.LambdaW2W(w, h)
		} else {
			lsum += dp.LambdaD2W(w, h, g.Geometry.Pitch, g.Geometry.TopDiameter/2, g.Grid.Pads())
		}
	}
	b := Breakdown{Recess: p.regionRecessYield(grids), Defect: math.Exp(-lsum)}
	m, regions := p.OverlayModel(), overlayRegions(grids)
	if mode == "w2w" {
		b.Overlay = m.WaferYieldW2WRegions(p.Layout(), regions)
	} else {
		b.Overlay = m.ExpectedDieYieldD2WRegions(p.DieWidth, p.DieHeight, p.WaferRadius(), p.PlacementSpread(), regions)
	}
	b.Total = b.Overlay * b.Recess * b.Defect
	return b, nil
}

// EvaluateW2W is Evaluate("w2w"): the W2W bonding yield (Eq. 22).
func (p Params) EvaluateW2W() (Breakdown, error) { return p.Evaluate("w2w") }

// EvaluateD2W is Evaluate("d2w"): the D2W bonding yield (Eq. 28).
func (p Params) EvaluateD2W() (Breakdown, error) { return p.Evaluate("d2w") }

// overlayRegions converts resolved region grids into the overlay model's
// view: each region's pad-array rectangle plus its geometry's δ bound.
func overlayRegions(grids []layout.RegionGrid) []overlay.PadRegion {
	regions := make([]overlay.PadRegion, len(grids))
	for i, g := range grids {
		regions[i] = overlay.PadRegion{Rect: g.Grid.Rect, Delta: g.Geometry.MaxMisalignment()}
	}
	return regions
}

// regionRecessYield returns Y_cr for a resolved layout: the product of
// per-region all-pads-pass probabilities, each at the region's Cu pattern
// density.
func (p Params) regionRecessYield(grids []layout.RegionGrid) float64 {
	y := 1.0
	for _, g := range grids {
		y *= p.RegionRecessParams(g.Geometry).DieYield(g.Grid.Pads())
	}
	return y
}

// SystemYield returns Y_sys = Y_D2W^n for a 2.5D system assembled from n
// chiplets with no redundancy (§IV-C), where n = ⌈systemArea / die area⌉.
// It also returns the chiplet count used.
func (p Params) SystemYield(systemArea float64) (float64, int, error) {
	b, err := p.EvaluateD2W()
	if err != nil {
		return 0, 0, err
	}
	dieArea := p.DieWidth * p.DieHeight
	if dieArea <= 0 {
		return 0, 0, fmt.Errorf("core: non-positive die area %g", dieArea)
	}
	n := int(math.Ceil(systemArea / dieArea))
	if n < 1 {
		n = 1
	}
	return math.Pow(b.Total, float64(n)), n, nil
}
