package overlay_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"yap/internal/core"
	"yap/internal/geom"
	"yap/internal/layout"
	"yap/internal/num"
	"yap/internal/overlay"
	"yap/internal/units"
	"yap/internal/wafer"
)

// The reference below is the D2W placement quadrature as it stood before
// the node-table kernel: Distortion.ScaleToDie and a four-Hypot corner
// maximum at every node of num.ExpectNormal × num.ExpectNormalAdaptive,
// once for the uniform die and once for a region layout. It is kept only
// as the oracle the kernel must match bit for bit.

// refMaxOverRect is the four-Hypot running maximum over the corners.
func refMaxOverRect(d overlay.Distortion, r geom.Rect) float64 {
	var maxS float64
	for _, c := range r.Corners() {
		if s := d.Magnitude(c); s > maxS {
			maxS = s
		}
	}
	return maxS
}

func refDiePOSRegions(dist overlay.Distortion, regions []overlay.PadRegion, sigma1 float64) float64 {
	pos := 1.0
	for _, r := range regions {
		pos *= overlay.PadPOS(refMaxOverRect(dist, r.Rect), r.Delta, sigma1)
	}
	return pos
}

func refExpectedDieYieldD2W(m overlay.Model, dieW, dieH, refRadius float64, spread overlay.PlacementSpread) float64 {
	pads := wafer.PadArrayFor(dieW, dieH, m.Pads.Pitch)
	halfDiag := wafer.HalfDiagonal(dieW, dieH)
	delta := m.Delta()
	if spread.Zero() {
		dist := m.Dist.ScaleToDie(refRadius, halfDiag)
		return overlay.PadPOS(refMaxOverRect(dist, pads.Rect), delta, m.Sigma1)
	}
	muSmooth := []float64{m.Dist.TX, m.Dist.TY, m.Dist.Rotation}
	sigmaSmooth := []float64{spread.TXSigma, spread.TYSigma, spread.RotationSigma}
	pos := func(tx, ty, rot, mag float64) float64 {
		dist := overlay.Distortion{TX: tx, TY: ty, Rotation: rot, Magnification: mag}.
			ScaleToDie(refRadius, halfDiag)
		return overlay.PadPOS(refMaxOverRect(dist, pads.Rect), delta, m.Sigma1)
	}
	y := num.ExpectNormalAdaptive(func(mag float64) float64 {
		return num.ExpectNormal(func(x []float64) float64 {
			return pos(x[0], x[1], x[2], mag)
		}, muSmooth, sigmaSmooth)
	}, m.Dist.Magnification, spread.MagnificationSigma)
	return num.Clamp(y, 0, 1)
}

func refExpectedDieYieldD2WRegions(m overlay.Model, dieW, dieH, refRadius float64, spread overlay.PlacementSpread, regions []overlay.PadRegion) float64 {
	halfDiag := wafer.HalfDiagonal(dieW, dieH)
	if spread.Zero() {
		return refDiePOSRegions(m.Dist.ScaleToDie(refRadius, halfDiag), regions, m.Sigma1)
	}
	muSmooth := []float64{m.Dist.TX, m.Dist.TY, m.Dist.Rotation}
	sigmaSmooth := []float64{spread.TXSigma, spread.TYSigma, spread.RotationSigma}
	pos := func(tx, ty, rot, mag float64) float64 {
		dist := overlay.Distortion{TX: tx, TY: ty, Rotation: rot, Magnification: mag}.
			ScaleToDie(refRadius, halfDiag)
		return refDiePOSRegions(dist, regions, m.Sigma1)
	}
	y := num.ExpectNormalAdaptive(func(mag float64) float64 {
		return num.ExpectNormal(func(x []float64) float64 {
			return pos(x[0], x[1], x[2], mag)
		}, muSmooth, sigmaSmooth)
	}, m.Dist.Magnification, spread.MagnificationSigma)
	return num.Clamp(y, 0, 1)
}

// checkerRegions tiles the die n×2 (n = 1, 2 or 4 gives 2, 4 or 8 tiles;
// one region is the uniform die) with alternate tiles at twice the pitch,
// resolved through core exactly as EvaluateD2W resolves them.
func checkerRegions(p core.Params, count int) []overlay.PadRegion {
	if count == 1 {
		return []overlay.PadRegion{p.OverlayModel().UniformRegion(p.DieWidth, p.DieHeight)}
	}
	cols, rows := count/2, 2
	w, h := p.DieWidth, p.DieHeight
	edge := func(i, n int, size float64) float64 {
		if i == n {
			return size / 2
		}
		return -size/2 + float64(i)*size/float64(n)
	}
	coarse := 2 * p.Pitch
	l := layout.Layout{}
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			reg := layout.Region{
				X0: edge(col, cols, w), X1: edge(col+1, cols, w),
				Y0: edge(row, rows, h), Y1: edge(row+1, rows, h),
			}
			if (row+col)%2 == 1 {
				reg.Pitch, reg.TopPadDiameter, reg.BottomPadDiameter = coarse, coarse/3, coarse/2
			}
			l.Regions = append(l.Regions, reg)
		}
	}
	p.PadLayout = &l
	var regions []overlay.PadRegion
	for _, g := range p.RegionGrids() {
		regions = append(regions, overlay.PadRegion{Rect: g.Grid.Rect, Delta: g.Geometry.MaxMisalignment()})
	}
	return regions
}

// checkOracle compares the kernel against the reference bit for bit on p's
// model and die, under the given placement spread, with the die split into
// the given number of regions, and returns the kernel's yield.
func checkOracle(t *testing.T, name string, p core.Params, spread overlay.PlacementSpread, regions int) float64 {
	t.Helper()
	m := p.OverlayModel()
	w, h, refR := p.DieWidth, p.DieHeight, p.WaferRadius()
	regs := checkerRegions(p, regions)
	got := m.ExpectedDieYieldD2WRegions(w, h, refR, spread, regs)
	want := refExpectedDieYieldD2WRegions(m, w, h, refR, spread, regs)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s (%d regions): kernel %v (bits %016x), reference %v (bits %016x)",
			name, regions, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if regions == 1 {
		uni := m.ExpectedDieYieldD2WRegions(w, h, refR, spread, []overlay.PadRegion{m.UniformRegion(w, h)})
		ref := refExpectedDieYieldD2W(m, w, h, refR, spread)
		if math.Float64bits(uni) != math.Float64bits(ref) || uni != got {
			t.Errorf("%s uniform: UniformRegion kernel %v, reference %v, one-region kernel %v", name, uni, ref, got)
		}
		if spread == p.PlacementSpread() {
			if b, err := p.EvaluateD2W(); err != nil || math.Float64bits(b.Overlay) != math.Float64bits(ref) {
				t.Errorf("%s: EvaluateD2W overlay %v (err %v), reference %v", name, b.Overlay, err, ref)
			}
		}
	}
	return got
}

func uniformIn(r *rand.Rand, lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

// sweepPoint draws a point the way the sweep-cold benchmark workload does:
// pitch 3–9 µm with pads sized pitch/3 and pitch/2, a square 6–12 mm die
// and σ₁ of 3–8 nm over Table I.
func sweepPoint(r *rand.Rand) core.Params {
	p := core.Baseline().WithPitch(uniformIn(r, 3, 9) * units.Micrometer)
	p.DieWidth = uniformIn(r, 6, 12) * units.Millimeter
	p.DieHeight = p.DieWidth
	p.RandomMisalignmentSigma = uniformIn(r, 3, 8) * units.Nanometer
	return p
}

// TestD2WKernelMatchesReferenceTableI: Table I and its zero-spread
// variants — σ₁ = 0, and each placement dimension deterministic in turn —
// on 1, 2 and 8 regions.
func TestD2WKernelMatchesReferenceTableI(t *testing.T) {
	variants := []struct {
		name string
		edit func(*core.Params, *overlay.PlacementSpread)
	}{
		{"tableI", func(*core.Params, *overlay.PlacementSpread) {}},
		{"sigma1=0", func(p *core.Params, _ *overlay.PlacementSpread) { p.RandomMisalignmentSigma = 0 }},
		{"tx=0", func(_ *core.Params, s *overlay.PlacementSpread) { s.TXSigma = 0 }},
		{"ty=0", func(_ *core.Params, s *overlay.PlacementSpread) { s.TYSigma = 0 }},
		{"rotation=0", func(_ *core.Params, s *overlay.PlacementSpread) { s.RotationSigma = 0 }},
		{"magnification=0", func(_ *core.Params, s *overlay.PlacementSpread) { s.MagnificationSigma = 0 }},
		{"spread=0", func(_ *core.Params, s *overlay.PlacementSpread) { *s = overlay.PlacementSpread{} }},
	}
	for _, v := range variants {
		for _, stressed := range []bool{false, true} {
			p := core.Baseline()
			if stressed {
				// Fine pitch and a wide random error: yields well inside
				// (0, 1), so the Hypot and erf path carries the answer.
				p = p.WithPitch(1 * units.Micrometer)
				p.RandomMisalignmentSigma = 40 * units.Nanometer
			}
			spread := p.PlacementSpread()
			v.edit(&p, &spread)
			if stressed && p.RandomMisalignmentSigma == 0 {
				// A step-function POS under the adaptive magnification
				// integral refines to thousands of nodes; hold E fixed.
				spread.MagnificationSigma = 0
			}
			for _, n := range []int{1, 2, 8} {
				checkOracle(t, fmt.Sprintf("%s stressed=%v", v.name, stressed), p, spread, n)
			}
		}
	}
}

// TestD2WKernelMatchesReferenceSweep: 200 seeded sweep-cold design points
// (one in eight split into 8 regions, one in eight into 2).
func TestD2WKernelMatchesReferenceSweep(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 1))
	for i := 0; i < 200; i++ {
		regions := 1
		switch i % 8 {
		case 3:
			regions = 2
		case 7:
			regions = 8
		}
		p := sweepPoint(r)
		checkOracle(t, fmt.Sprintf("sweep %d", i), p, p.PlacementSpread(), regions)
	}
}

// TestD2WKernelMatchesReferenceUnsaturated: points whose random error is
// wide against δ (σ₁ 30–260 nm at 1–2 µm pitch), so few nodes take the
// saturation exit and the yield is informative.
func TestD2WKernelMatchesReferenceUnsaturated(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 2))
	informative := 0
	const n = 39
	for i := 0; i < n; i++ {
		p := core.Baseline().WithPitch(uniformIn(r, 1, 2) * units.Micrometer)
		p.RandomMisalignmentSigma = uniformIn(r, 30, 260) * units.Nanometer
		y := checkOracle(t, fmt.Sprintf("unsaturated %d", i), p, p.PlacementSpread(), []int{1, 2, 8}[i%3])
		if y > 1e-6 && y < 1-1e-6 {
			informative++
		}
	}
	if informative < n/3 {
		t.Errorf("only %d of %d unsaturated points have a yield inside (0, 1)", informative, n)
	}
}

// refSumDiePOS is SumDiePOS before its saturation exit: the product of
// PadPOS(MaxOverRect) over the regions of every die. It is kept only as
// the oracle the kernel must match bit for bit.
func refSumDiePOS(m overlay.Model, dies []wafer.Die, regions []overlay.PadRegion, pos []float64) float64 {
	var sum float64
	for i, die := range dies {
		c := die.Center()
		diePOS := 1.0
		for _, r := range regions {
			diePOS *= overlay.PadPOS(m.Dist.MaxOverRect(r.Rect.Translate(c)), r.Delta, m.Sigma1)
		}
		if pos != nil {
			pos[i] = diePOS
		}
		sum += diePOS
	}
	return sum
}

// checkW2WOracle compares SumDiePOS against the reference bit for bit,
// the per-die POS included, on p's wafer with the die split into the given
// number of regions. With unsaturated set it also checks that no region
// of any die has PadPOS exactly 1, so no exit can fire.
func checkW2WOracle(t *testing.T, name string, p core.Params, regions int, unsaturated bool) {
	t.Helper()
	m := p.OverlayModel()
	dies := p.Layout().Dies()
	regs := checkerRegions(p, regions)
	pos, want := make([]float64, len(dies)), make([]float64, len(dies))
	got, ref := m.SumDiePOS(dies, regs, pos), refSumDiePOS(m, dies, regs, want)
	if math.Float64bits(got) != math.Float64bits(ref) {
		t.Errorf("%s (%d regions): SumDiePOS %v (bits %016x), reference %v (bits %016x)",
			name, regions, got, math.Float64bits(got), ref, math.Float64bits(ref))
	}
	for i := range pos {
		if math.Float64bits(pos[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s (%d regions): die %d POS %v, reference %v", name, regions, i, pos[i], want[i])
			break
		}
	}
	if unsaturated {
		for _, die := range dies {
			for _, r := range regs {
				if overlay.PadPOS(m.Dist.MaxOverRect(r.Rect.Translate(die.Center())), r.Delta, m.Sigma1) == 1 {
					t.Fatalf("%s (%d regions): a saturated region on an unsaturated process", name, regions)
				}
			}
		}
	}
}

// TestW2WKernelMatchesReference pins SumDiePOS's saturation exit to the
// plain PadPOS product: Table I, 60 seeded sweep-cold design points (one
// in eight split into 8 regions, one in eight into 2), and processes whose
// random error (no region saturates) or warpage (edge dies leave
// saturation) is wide.
func TestW2WKernelMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		checkW2WOracle(t, "tableI", core.Baseline(), n, false)
	}
	r := rand.New(rand.NewPCG(31, 3))
	for i := 0; i < 60; i++ {
		regions := 1
		switch i % 8 {
		case 3:
			regions = 2
		case 7:
			regions = 8
		}
		checkW2WOracle(t, fmt.Sprintf("sweep %d", i), sweepPoint(r), regions, false)
	}
	for _, n := range []int{1, 8} {
		wide := core.Baseline()
		wide.RandomMisalignmentSigma = 400 * units.Nanometer
		checkW2WOracle(t, "wide sigma1", wide, n, true)
		warped := core.Baseline()
		warped.Warpage = 120 * units.Micrometer
		checkW2WOracle(t, "warped", warped, n, false)
	}
}
