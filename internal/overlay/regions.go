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

// DiePOSRegions returns the possibility of survival of a die whose pads
// form heterogeneous regions under a shared distortion field (the YAP+
// generalization of Eq. 7): each region survives as its worst pad does
// (corner of the convex region rectangle), and the die POS is the product
// of per-region pad survival. Rects are evaluated against dist directly,
// so callers translate die-local rects into the distortion frame first
// when needed. For a single region the product reduces bit-identically to
// DiePOS (1·x == x).
func DiePOSRegions(dist Distortion, regions []PadRegion, sigma1 float64) float64 {
	pos := 1.0
	for _, r := range regions {
		pos *= PadPOS(dist.MaxOverRect(r.Rect), r.Delta, sigma1)
	}
	return pos
}

// WaferYieldW2WRegions is WaferYieldW2W for a heterogeneous pad layout:
// the average over all dies of the per-die region-product POS, with each
// region's die-local rectangle translated to the die's wafer position. The
// model's Pads field is not consulted — each region carries its own δ.
func (m Model) WaferYieldW2WRegions(layout wafer.Layout, regions []PadRegion) float64 {
	dies := layout.Dies()
	if len(dies) == 0 {
		return 0
	}
	var sum float64
	for _, die := range dies {
		c := die.Center()
		pos := 1.0
		for _, r := range regions {
			pos *= PadPOS(m.Dist.MaxOverRect(r.Rect.Translate(c)), r.Delta, m.Sigma1)
		}
		sum += pos
	}
	return sum / float64(len(dies))
}

// DieYieldD2WRegions is DieYieldD2W for a heterogeneous pad layout: the
// wafer-level rotation and magnification are rescaled to the die's
// half-diagonal and the region-product POS is evaluated in die-local
// coordinates.
func (m Model) DieYieldD2WRegions(dieW, dieH, refRadius float64, regions []PadRegion) float64 {
	dist := m.Dist.ScaleToDie(refRadius, wafer.HalfDiagonal(dieW, dieH))
	return DiePOSRegions(dist, regions, m.Sigma1)
}
