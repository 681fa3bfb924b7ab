package overlay

import (
	"math"
	"math/rand/v2"
	"testing"

	"yap/internal/geom"
	"yap/internal/units"
)

// TestSaturationExitAgreesWithPadPOS walks s across the saturation bound,
// 64 ulps either side of it, and checks that wherever the kernel's exit
// fires (s² below the bound) PadPOS is exactly 1, so skipping it changes
// no bit.
func TestSaturationExitAgreesWithPadPOS(t *testing.T) {
	cases := []struct{ delta, sigma1 float64 }{
		{1.1 * units.Micrometer, 5 * units.Nanometer},       // Table I-like pads
		{150 * units.Nanometer, 8 * units.Nanometer},        // fine pitch
		{60 * units.Nanometer, 7.0710678 * units.Nanometer}, // bound a sliver above 0
		{1 * units.Micrometer, 1e-22},                       // δ/σ₁ beyond 2⁵³
		{1 * units.Micrometer, 0},                           // step POS
	}
	for _, c := range cases {
		sat2 := saturatedNorm2(c.delta, c.sigma1)
		if sat2 <= 0 {
			t.Fatalf("δ=%g σ₁=%g: no saturation bound", c.delta, c.sigma1)
		}
		s := math.Sqrt(sat2)
		for i := 0; i < 64; i++ {
			s = math.Nextafter(s, 0)
		}
		fired, open := 0, 0
		for i := -64; i <= 64; i++ {
			if s*s < sat2 {
				fired++
				if pos := PadPOS(s, c.delta, c.sigma1); pos != 1 {
					t.Errorf("δ=%g σ₁=%g s=%v: exit fires but PadPOS = %v (bits %016x)",
						c.delta, c.sigma1, s, pos, math.Float64bits(pos))
				}
			} else {
				open++
			}
			s = math.Nextafter(s, math.Inf(1))
		}
		if fired == 0 || open == 0 {
			t.Errorf("δ=%g σ₁=%g: walk did not cross the bound (%d exits, %d evaluations)", c.delta, c.sigma1, fired, open)
		}
	}
	// No bound where PadPOS never reaches 1: δ ≤ 0, a random error too wide
	// for δ, or a NaN input.
	for _, c := range [][2]float64{{0, 5e-9}, {-1e-6, 5e-9}, {50e-9, 10e-9}, {math.NaN(), 5e-9}, {1e-6, math.NaN()}} {
		if sat2 := saturatedNorm2(c[0], c[1]); sat2 != 0 {
			t.Errorf("δ=%g σ₁=%g: saturation bound %g, want none", c[0], c[1], sat2)
		}
	}
}

// legacyMaxOverRect is MaxOverRect before the squared-norm selection: four
// Hypot calls and a running maximum.
func legacyMaxOverRect(d Distortion, r geom.Rect) float64 {
	var maxS float64
	for _, c := range r.Corners() {
		if s := d.Magnitude(c); s > maxS {
			maxS = s
		}
	}
	return maxS
}

// TestMaxOverRectMatchesFourHypots pins the squared-norm corner selection
// to four Hypot calls bit for bit, on random fields and on exact and
// near ties (a centered square under pure magnification has four equal
// corners), and with non-finite displacements.
func TestMaxOverRectMatchesFourHypots(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	square := geom.Rect{X0: -5e-3, Y0: -5e-3, X1: 5e-3, Y1: 5e-3}
	check := func(d Distortion, rect geom.Rect) {
		t.Helper()
		got, want := d.MaxOverRect(rect), legacyMaxOverRect(d, rect)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%+v on %+v: MaxOverRect %v, four Hypots %v", d, rect, got, want)
		}
	}
	for i := 0; i < 20000; i++ {
		d := Distortion{
			TX: r.NormFloat64() * 1e-8, TY: r.NormFloat64() * 1e-8,
			Rotation: r.NormFloat64() * 1e-6, Magnification: r.NormFloat64() * 1e-6,
		}
		x0, y0 := r.NormFloat64()*0.1, r.NormFloat64()*0.1
		rect := geom.Rect{X0: x0, Y0: y0, X1: x0 + r.Float64()*0.02, Y1: y0 + r.Float64()*0.02}
		check(d, rect)
		// Ties: pure magnification or rotation on a centered square, then
		// a translation of a few ulps of the displacement.
		tie := Distortion{Magnification: d.Magnification, Rotation: d.Rotation * float64(i%2)}
		check(tie, square)
		tie.TX = math.Abs(d.Magnification) * 5e-3 * 1e-15 * float64(i%7-3)
		check(tie, square)
	}
	check(Distortion{}, square)
	check(Distortion{TX: 1e-300, TY: -1e-300}, square)
	check(Distortion{TX: math.Inf(1), TY: math.NaN()}, square)
	check(Distortion{Magnification: math.NaN()}, square)
	check(Distortion{TX: 1e200, Magnification: 1e203}, square)
}
