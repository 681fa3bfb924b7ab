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
//
// A region whose four squared corner norms, computed as MaxOverRect
// computes them, all lie below its saturation bound (saturatedNorm2) has
// PadPOS exactly 1, and diePOS·1 == diePOS; such a region skips maxHypot
// and PadPOS, so the sum and every pos[i] are bit-identical to the plain
// product of PadPOS(MaxOverRect) terms.
func (m Model) SumDiePOS(dies []wafer.Die, regions []PadRegion, pos []float64) float64 {
	var stack [8]float64
	sat2 := stack[:0]
	for _, r := range regions {
		sat2 = append(sat2, saturatedNorm2(r.Delta, m.Sigma1))
	}
	var sum float64
	for i, die := range dies {
		c := die.Center()
		diePOS := 1.0
		for k, r := range regions {
			var dx, dy, n2 [4]float64
			m.Dist.cornerNorms(r.Rect.Translate(c), &dx, &dy, &n2)
			n2max := max(n2[0], n2[1], n2[2], n2[3])
			if n2max < sat2[k] {
				continue
			}
			diePOS *= PadPOS(maxHypot(&dx, &dy, &n2, n2max), r.Delta, m.Sigma1)
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
