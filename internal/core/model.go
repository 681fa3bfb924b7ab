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

// EvaluateW2W evaluates the full W2W bonding-yield model (Eq. 22):
// Y_W2W = Y_ovl,W2W · Y_cr,W2W · Y_df,W2W. With a PadLayout set, every
// mechanism generalizes per region (YAP+): the overlay term products
// per-region pad survival under the shared distortion field, the recess
// term products per-region die yields at each region's Cu density, and the
// defect term sums per-region kill rates Λ before the Poisson exponent.
func (p Params) EvaluateW2W() (Breakdown, error) {
	if err := p.Validate(); err != nil {
		return Breakdown{}, err
	}
	var b Breakdown
	m := p.OverlayModel()
	var regions []overlay.PadRegion
	if p.PadLayout == nil {
		regions = []overlay.PadRegion{m.UniformRegion(p.DieWidth, p.DieHeight)}
		b = Breakdown{
			Recess: p.RecessParams().DieYield(p.PadArray().Pads()),
			Defect: p.DefectParams().YieldW2W(p.DieWidth, p.DieHeight),
		}
	} else {
		grids := p.RegionGrids()
		dp := p.DefectParams()
		var lsum float64
		for _, g := range grids {
			// Per-region critical outline, mirroring the legacy term's use
			// of the die outline for the whole-die region.
			lsum += dp.LambdaW2W(g.Rect.Width(), g.Rect.Height())
		}
		regions = overlayRegions(grids)
		b = Breakdown{
			Recess: p.regionRecessYield(grids),
			Defect: math.Exp(-lsum),
		}
	}
	b.Overlay = m.WaferYieldW2WRegions(p.Layout(), regions)
	b.Total = b.Overlay * b.Recess * b.Defect
	return b, nil
}

// EvaluateD2W evaluates the full D2W bonding-yield model (Eq. 28):
// Y_D2W = Y_ovl,D2W · Y_cr,D2W · Y_df,D2W. The overlay term averages the
// die placement variation; the rotation/magnification reference radius is
// the wafer radius at which Table I characterizes them. With a PadLayout
// set the mechanisms generalize per region as in EvaluateW2W, the D2W
// defect term summing each region's main-void kill rate at its own pitch,
// pad size and pad count.
func (p Params) EvaluateD2W() (Breakdown, error) {
	if err := p.Validate(); err != nil {
		return Breakdown{}, err
	}
	var b Breakdown
	m := p.OverlayModel()
	var regions []overlay.PadRegion
	if p.PadLayout == nil {
		regions = []overlay.PadRegion{m.UniformRegion(p.DieWidth, p.DieHeight)}
		b = Breakdown{
			Recess: p.RecessParams().DieYield(p.PadArray().Pads()),
			Defect: p.DefectParams().YieldD2W(
				p.DieWidth, p.DieHeight, p.Pitch, p.TopPadDiameter/2, p.PadArray().Pads()),
		}
	} else {
		grids := p.RegionGrids()
		dp := p.DefectParams()
		var lsum float64
		for _, g := range grids {
			lsum += dp.LambdaD2W(g.Rect.Width(), g.Rect.Height(),
				g.Geometry.Pitch, g.Geometry.TopDiameter/2, g.Grid.Pads())
		}
		regions = overlayRegions(grids)
		b = Breakdown{
			Recess: p.regionRecessYield(grids),
			Defect: math.Exp(-lsum),
		}
	}
	b.Overlay = m.ExpectedDieYieldD2WRegions(p.DieWidth, p.DieHeight, p.WaferRadius(), p.PlacementSpread(), regions)
	b.Total = b.Overlay * b.Recess * b.Defect
	return b, nil
}

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
// density (identical to the uniform term for a single full-die region).
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
