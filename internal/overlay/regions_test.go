package overlay

import (
	"math"
	"testing"

	"yap/internal/geom"
	"yap/internal/units"
	"yap/internal/wafer"
)

// stressedModel is a distortion field strong enough that region structure
// matters (yields strictly between 0 and 1 at the 300 mm layout).
func stressedModel() Model {
	return Model{
		Pads: basePads(),
		Dist: Distortion{
			TX: 5 * units.Nanometer, TY: 5 * units.Nanometer,
			Rotation:      0.1 * units.Microradian,
			Magnification: 17 * units.PPM,
		},
		Sigma1: 5 * units.Nanometer,
	}
}

// TestW2WRegionsSingleRegionBitIdentical pins the YAP+ identity for W2W:
// one region carrying the pad-array rectangle and δ must reproduce the
// uniform-die Eq. 8 — the worst corner of each die's PadArrayRectOn,
// averaged over the dies — bit for bit (the region product starts at 1.0
// and 1.0·x == x exactly; the translated rect additions match
// PadArrayRectOn term by term).
func TestW2WRegionsSingleRegionBitIdentical(t *testing.T) {
	m := stressedModel()
	lay := wafer.Layout{WaferRadius: 0.15, DieWidth: 0.01, DieHeight: 0.01}
	pads := wafer.PadArrayFor(lay.DieWidth, lay.DieHeight, m.Pads.Pitch)
	regions := []PadRegion{{Rect: pads.Rect, Delta: m.Delta()}}
	var sum float64
	dies := lay.Dies()
	for _, d := range dies {
		sum += PadPOS(m.Dist.MaxOverRect(pads.PadArrayRectOn(d)), m.Delta(), m.Sigma1)
	}
	legacy := sum / float64(len(dies))
	region := m.WaferYieldW2WRegions(lay, regions)
	if legacy != region {
		t.Errorf("single-region W2W = %x, legacy = %x; must be bit-identical",
			math.Float64bits(region), math.Float64bits(legacy))
	}
	if legacy <= 0 || legacy >= 1 {
		t.Fatalf("test model not in the informative regime: y = %g", legacy)
	}
}

// TestD2WRegionsSingleRegionBitIdentical pins the same identity for D2W:
// UniformRegion is the pad-array rectangle and δ, and at zero spread the
// region path is the uniform die's Eq. 23 bit for bit. (The placement
// average over one region is pinned against the pre-kernel uniform
// quadrature by the oracle tests.)
func TestD2WRegionsSingleRegionBitIdentical(t *testing.T) {
	m := stressedModel()
	const dieW, dieH = 0.01, 0.01
	const refR = 0.15
	pads := wafer.PadArrayFor(dieW, dieH, m.Pads.Pitch)
	regions := []PadRegion{{Rect: pads.Rect, Delta: m.Delta()}}
	if uni := m.UniformRegion(dieW, dieH); uni != regions[0] {
		t.Errorf("UniformRegion = %+v, want %+v", uni, regions[0])
	}
	dist := m.Dist.ScaleToDie(refR, wafer.HalfDiagonal(dieW, dieH))
	legacy := PadPOS(dist.MaxOverRect(pads.Rect), m.Delta(), m.Sigma1)
	if region := m.ExpectedDieYieldD2WRegions(dieW, dieH, refR, PlacementSpread{}, regions); legacy != region {
		t.Errorf("single-region D2W = %x, legacy = %x", math.Float64bits(region), math.Float64bits(legacy))
	}
}

// TestDiePOSRegionsProduct checks the product structure: two disjoint
// regions multiply, and a tight-δ region drags the die below the loose
// region alone.
func TestDiePOSRegionsProduct(t *testing.T) {
	m := stressedModel()
	a := PadRegion{Rect: geom.Rect{X0: -0.004, Y0: -0.004, X1: 0, Y1: 0.004}, Delta: 50 * units.Nanometer}
	b := PadRegion{Rect: geom.Rect{X0: 0, Y0: -0.004, X1: 0.004, Y1: 0.004}, Delta: 200 * units.Nanometer}
	origin := []wafer.Die{{}}
	pa := m.SumDiePOS(origin, []PadRegion{a}, nil)
	pb := m.SumDiePOS(origin, []PadRegion{b}, nil)
	pab := m.SumDiePOS(origin, []PadRegion{a, b}, nil)
	if got, want := pab, pa*pb; got != want {
		t.Errorf("two-region POS = %g, want product %g", got, want)
	}
	if !(pab <= pb && pab <= pa) {
		t.Errorf("region product %g exceeds a factor (%g, %g)", pab, pa, pb)
	}
	if pa >= pb {
		t.Errorf("tight-δ region (%g) should survive less than loose one (%g)", pa, pb)
	}
}
