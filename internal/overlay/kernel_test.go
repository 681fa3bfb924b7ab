package overlay

import (
	"math"
	"math/rand/v2"
	"testing"

	"yap/internal/geom"
	"yap/internal/units"
)

// TestSaturationExitAgreesWithPadPOS walks s across the saturation bound,
// 64 ulps either side of it, and checks that PadPOS is exactly 1 all along
// the walk: where the kernels' exit fires (s² below the bound), so
// skipping it changes no bit, and just above the bound, where a D2W node
// inside the saturated magnification interval would land if its rounded
// squared norm ever crossed the bound (saturatedInterval).
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
			} else {
				open++
			}
			if pos := PadPOS(s, c.delta, c.sigma1); pos != 1 {
				t.Errorf("δ=%g σ₁=%g s=%v (exit fires: %v): PadPOS = %v (bits %016x)",
					c.delta, c.sigma1, s, s*s < sat2, pos, math.Float64bits(pos))
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

// quadrants splits a w×h die into four regions meeting at the die centre,
// so one corner of each sits at (0, 0), with alternating δ.
func quadrants(w, h, delta, coarse float64) []PadRegion {
	return []PadRegion{
		{Rect: geom.Rect{X0: -w / 2, Y0: -h / 2, X1: 0, Y1: 0}, Delta: delta},
		{Rect: geom.Rect{X0: 0, Y0: -h / 2, X1: w / 2, Y1: 0}, Delta: coarse},
		{Rect: geom.Rect{X0: 0, Y0: 0, X1: w / 2, Y1: h / 2}, Delta: delta},
		{Rect: geom.Rect{X0: -w / 2, Y0: 0, X1: 0, Y1: h / 2}, Delta: coarse},
	}
}

// TestD2WSaturatedIntervalMatchesScan walks the magnification nodes of the
// D2W kernel across both ends of its saturated interval — 64 ulps either
// side, then outward and inward across the guard band in steps of 2⁻⁵²…2⁻⁸
// relative — and checks that the node's value, early exit or not, equals
// the full corner scan bit for bit. The cases cover a uniform die, regions
// with a corner at the die centre, an unsaturated process (empty interval)
// and NaN inputs.
func TestD2WSaturatedIntervalMatchesScan(t *testing.T) {
	const w, h, refR = 10e-3, 10e-3, 0.15
	m := Model{ // Table I
		Pads: basePads(),
		Dist: Distortion{
			TX: 5 * units.Nanometer, TY: 5 * units.Nanometer,
			Rotation:      0.1 * units.Microradian,
			Magnification: 0.9 * units.PPM,
		},
		Sigma1: 5 * units.Nanometer,
	}
	spread := PlacementSpread{
		TXSigma: 10 * units.Nanometer, TYSigma: 10 * units.Nanometer,
		RotationSigma:      0.05 * units.Microradian,
		MagnificationSigma: 0.27 * units.PPM,
	}
	uniform := []PadRegion{m.UniformRegion(w, h)}
	fine := m.Delta()
	coarse := PadGeometry{Pitch: 12e-6, TopDiameter: 4e-6, BottomDiameter: 6e-6, ContactAreaFraction: 0.75, CriticalDistanceFraction: 0.75}.MaxMisalignment()
	shifted := m
	shifted.Dist.TX = 400 * units.Nanometer
	wide := m
	wide.Sigma1 = 400 * units.Nanometer
	nanDist := m
	nanDist.Dist.TX = math.NaN()
	nanSpread := spread
	nanSpread.RotationSigma = math.NaN()
	cases := []struct {
		name      string
		m         Model
		spread    PlacementSpread
		regions   []PadRegion
		saturated bool // whether the interval must be non-empty
	}{
		{"tableI uniform", m, spread, uniform, true},
		{"tableI centre corners", m, spread, quadrants(w, h, fine, coarse), true},
		{"shifted (asymmetric interval)", shifted, spread, uniform, true},
		{"unsaturated", wide, spread, uniform, false},
		{"unsaturated centre corners", wide, spread, quadrants(w, h, fine, coarse), false},
		{"NaN translation", nanDist, spread, uniform, false},
		{"NaN spread", m, nanSpread, uniform, false},
	}
	var stack [(2*7 + 4) * 7 * 4]float64
	for _, c := range cases {
		k := newD2WKernel(c.m, w, h, refR, c.spread, c.regions, stack[:])
		if got := k.eLo < k.eHi; got != c.saturated {
			t.Errorf("%s: saturated interval (%g, %g), want non-empty %v", c.name, k.eLo, k.eHi, c.saturated)
		}
		fired, scanned := 0, 0
		check := func(mag float64) {
			t.Helper()
			e := mag * k.scale
			if e > k.eLo && e < k.eHi {
				fired++
			} else {
				scanned++
			}
			if got, want := k.node(mag), k.scan(e); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: mag %v (e %v, interval (%v, %v)): node %v (bits %016x), scan %v (bits %016x)",
					c.name, mag, e, k.eLo, k.eHi, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		ends := []float64{k.eLo, k.eHi}
		if !c.saturated {
			// No interval to straddle: walk around the process mean.
			ends = []float64{c.m.Dist.Magnification * k.scale}
		}
		for _, end := range ends {
			if math.IsInf(end, 0) || math.IsNaN(end) {
				continue
			}
			mag := end / k.scale
			for i := 0; i < 64; i++ {
				mag = math.Nextafter(mag, math.Inf(-1))
			}
			for i := -64; i <= 64; i++ {
				check(mag)
				mag = math.Nextafter(mag, math.Inf(1))
			}
			for p := -52; p <= -8; p++ {
				d := math.Abs(end/k.scale) * math.Ldexp(1, p)
				check(end/k.scale - d)
				check(end/k.scale + d)
			}
		}
		if c.saturated && (fired == 0 || scanned == 0) {
			t.Errorf("%s: walk did not cross the interval (%d exits, %d scans)", c.name, fired, scanned)
		}
		if !c.saturated && fired != 0 {
			t.Errorf("%s: %d exits on an empty interval", c.name, fired)
		}
	}
}

// TestSaturatedInterval pins the per-corner interval's special cases: a
// corner at the die centre is saturated for every e or for none, a zero
// bound or a NaN gives an empty interval, and inside a non-empty interval
// the kernel's squared norm stays below the bound.
func TestSaturatedInterval(t *testing.T) {
	const sat2 = 1e-12 // a 1 µm saturation radius
	if lo, hi := saturatedInterval(3e-7, -4e-7, 0, 0, sat2); !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Errorf("centre corner inside the radius: (%g, %g), want the whole line", lo, hi)
	}
	empty := [][5]float64{
		{3e-6, 0, 0, 0, sat2},                 // centre corner outside the radius
		{0, 0, 5e-3, 5e-3, 0},                 // zero bound
		{2e-6, 0, 0, 5e-3, sat2},              // the corner's line misses the disc
		{math.NaN(), 0, 5e-3, 5e-3, sat2},     // NaN translation
		{0, 0, math.NaN(), 5e-3, sat2},        // NaN corner
		{0, 0, 5e-3, 5e-3, math.NaN()},        // NaN bound
		{2e-3, 2e-3 + 1e-7, 5e-3, 5e-3, sat2}, // saturated only by cancelling a large translation
	}
	for _, c := range empty {
		if lo, hi := saturatedInterval(c[0], c[1], c[2], c[3], c[4]); lo < hi {
			t.Errorf("saturatedInterval%v = (%g, %g), want empty", c, lo, hi)
		}
	}
	r := rand.New(rand.NewPCG(3, 5))
	for n := 0; n < 2000; n++ {
		x, y := r.NormFloat64()*3e-7, r.NormFloat64()*3e-7
		X, Y := (r.Float64()-0.5)*1e-2, (r.Float64()-0.5)*1e-2
		lo, hi := saturatedInterval(x, y, X, Y, sat2)
		if !(lo < hi) {
			continue
		}
		for _, e := range []float64{lo, hi, (lo + hi) / 2} {
			for i := 0; i < 8; i++ {
				if e > lo && e < hi {
					dx, dy := x+e*X, y+e*Y
					if d2 := dx*dx + dy*dy; !(d2 < sat2) {
						t.Errorf("(%g, %g, %g, %g): e=%v inside (%v, %v) has d² %v ≥ bound", x, y, X, Y, e, lo, hi, d2)
					}
				}
				if e == lo {
					e = math.Nextafter(e, math.Inf(1))
				} else {
					e = math.Nextafter(e, math.Inf(-1))
				}
			}
		}
	}
}
