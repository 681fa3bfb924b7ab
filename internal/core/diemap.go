package core

import (
	"math"

	"yap/internal/wafer"
)

// DieYield is the per-die resolved W2W yield prediction: Eq. 8 before its
// final average, with position-dependent defect exposure. It quantifies
// the paper's §IV-B observation that "chiplets closer to the wafer center
// are more likely to survive".
type DieYield struct {
	// Die is the floorplan site.
	Die wafer.Die
	// Overlay is the die's POS under the systematic distortion field
	// (Eq. 7) — the radially growing magnification makes this fall toward
	// the edge.
	Overlay float64
	// Recess is Y_cr (position-independent; Eq. 14).
	Recess float64
	// Defect is the die's defect survival with the local particle density
	// (position-dependent under radial clustering, uniform otherwise).
	Defect float64
	// Total is the product.
	Total float64
}

// Radius returns the die center's distance from the wafer center.
func (d DieYield) Radius() float64 {
	c := d.Die.Center()
	return math.Hypot(c.X, c.Y)
}

// W2WDieYields returns the per-die yield map of the W2W model over the
// effective pad layout. The Overlay column is the per-die region product
// that Evaluate("w2w") averages into Eq. 8 (SumDiePOS), so it averages to
// Evaluate's overlay term; Recess is its recess term. Averaging the Total
// column reproduces Evaluate's product up to the correlation between
// mechanisms across positions (exactly, when defects are uniform).
func (p Params) W2WDieYields() ([]DieYield, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	grids := p.RegionGrids()
	regions := overlayRegions(grids)
	ov := p.OverlayModel()
	recessY := p.regionRecessYield(grids)
	dp := p.DefectParams()

	// Eq. 20 per region, split so the local density can scale each
	// region's point term per die. The tail term mixes contributions from
	// particles at all radii; it is kept at its wafer average (the
	// die-resolved tail would need the full 2-D integral the simulator
	// effectively performs).
	type span struct{ w, h, tail float64 }
	spans := make([]span, len(grids))
	for i, g := range grids {
		w, h := g.Rect.Width(), g.Rect.Height()
		spans[i] = span{w, h, dp.LambdaW2WTail(w, h)}
	}

	dies := p.Layout().Dies()
	overlayPOS := make([]float64, len(dies))
	ov.SumDiePOS(dies, regions, overlayPOS)
	out := make([]DieYield, len(dies))
	for i, d := range dies {
		c := d.Center()
		localDensity := dp.DensityAt(math.Hypot(c.X, c.Y))
		var lambda float64
		for _, s := range spans {
			lambda += localDensity*s.w*s.h + s.tail
		}
		dy := DieYield{
			Die:     d,
			Overlay: overlayPOS[i],
			Recess:  recessY,
			Defect:  math.Exp(-lambda),
		}
		dy.Total = dy.Overlay * dy.Recess * dy.Defect
		out[i] = dy
	}
	return out, nil
}

// RadialProfile bins per-die yields by die-center radius and returns the
// bin centers (m) and mean total yields — the radial yield falloff curve.
func RadialProfile(dies []DieYield, bins int, waferRadius float64) (centers, yields []float64) {
	if bins < 1 || len(dies) == 0 {
		return nil, nil
	}
	sums := make([]float64, bins)
	counts := make([]int, bins)
	for _, d := range dies {
		b := int(d.Radius() / waferRadius * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		sums[b] += d.Total
		counts[b]++
	}
	for b := 0; b < bins; b++ {
		if counts[b] == 0 {
			continue
		}
		centers = append(centers, (float64(b)+0.5)/float64(bins)*waferRadius)
		yields = append(yields, sums[b]/float64(counts[b]))
	}
	return centers, yields
}
