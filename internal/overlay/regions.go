package overlay

import (
	"yap/internal/geom"
	"yap/internal/wafer"
)

// PadRegion is one pad region's resolved overlay inputs: its pad-array
// rectangle in die-local coordinates and the survivable-misalignment bound
// δ of its pad geometry. It is the overlay-model view of a resolved
// internal/layout region; the types are kept generic here so layout can
// depend on overlay (for PadGeometry) without a cycle.
type PadRegion struct {
	// Rect is the region's pad-array rectangle (die-local meters).
	Rect geom.Rect
	// Delta is the region geometry's MaxMisalignment bound δ (m).
	Delta float64
}

// SumDiePOS returns the sum over the dies of each die's possibility of
// survival under the distortion field: Eq. 7 with YAP+'s per-region
// generalization. The random error is shared within a die, so each region
// survives as its worst pad does, at a corner of the convex region
// rectangle translated to the die's center, and the die POS is the product
// of per-region pad survival. When pos is non-nil, die i's POS is also
// stored in pos[i]. The model's Pads field is not consulted: each region
// carries its own δ.
func (m Model) SumDiePOS(dies []wafer.Die, regions []PadRegion, pos []float64) float64 {
	var sum float64
	for i, die := range dies {
		c := die.Center()
		diePOS := 1.0
		for _, r := range regions {
			diePOS *= PadPOS(m.Dist.MaxOverRect(r.Rect.Translate(c)), r.Delta, m.Sigma1)
		}
		if pos != nil {
			pos[i] = diePOS
		}
		sum += diePOS
	}
	return sum
}

// WaferYieldW2WRegions returns Y_ovl,W2W (Eq. 8): the die POS averaged over
// all dies of the wafer layout.
func (m Model) WaferYieldW2WRegions(layout wafer.Layout, regions []PadRegion) float64 {
	dies := layout.Dies()
	if len(dies) == 0 {
		return 0
	}
	return m.SumDiePOS(dies, regions, nil) / float64(len(dies))
}
