package design

import (
	"errors"
	"testing"

	"yap/internal/core"
	"yap/internal/units"
)

func TestModeString(t *testing.T) {
	if W2W.String() != "W2W" || D2W.String() != "D2W" {
		t.Error("mode names wrong")
	}
}

func TestMinPitchW2W(t *testing.T) {
	base := core.Baseline()
	target := 0.75
	pitch, err := MinPitch(W2W, base, target, 0.5*units.Micrometer, 10*units.Micrometer)
	if err != nil {
		t.Fatal(err)
	}
	// The rule is binding: yield at the rule meets the target, yield 5%
	// finer does not.
	y, err := base.WithPitch(pitch).EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if y.Total < target {
		t.Errorf("yield at MinPitch = %g below target %g", y.Total, target)
	}
	yf, err := base.WithPitch(pitch * 0.95).EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if yf.Total >= target {
		t.Errorf("yield 5%% below MinPitch still meets target: %g", yf.Total)
	}
	// From the pitch_sweep example, W2W crosses 0.75 between 1.5 and 2 µm.
	if pitch < 1*units.Micrometer || pitch > 3*units.Micrometer {
		t.Errorf("MinPitch = %v, expected 1-3 µm", pitch)
	}
}

func TestMinPitchD2WCoarserThanW2WAtLowTarget(t *testing.T) {
	// At targets below D2W's overlay cliff (~1.5 µm), W2W's alignment
	// advantage shows: it scales to a finer pitch than D2W. (At high
	// targets the comparison flips — W2W's defect-limited ceiling binds
	// first — which is itself the paper's §IV-A observation.)
	base := core.Baseline()
	target := 0.6
	w, err := MinPitch(W2W, base, target, 0.5*units.Micrometer, 10*units.Micrometer)
	if err != nil {
		t.Fatal(err)
	}
	d, err := MinPitch(D2W, base, target, 0.5*units.Micrometer, 10*units.Micrometer)
	if err != nil {
		t.Fatal(err)
	}
	if d <= w {
		t.Errorf("D2W min pitch (%g) should be coarser than W2W's (%g)", d, w)
	}
}

func TestMinPitchInfeasible(t *testing.T) {
	base := core.Baseline()
	// 0.99 total is unreachable at 0.1 cm⁻² (defects alone cap at 0.814).
	if _, err := MinPitch(W2W, base, 0.99, 0.5*units.Micrometer, 10*units.Micrometer); !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

func TestMinPitchTrivial(t *testing.T) {
	base := core.Baseline().WithDefectDensity(1) // virtually clean
	pitch, err := MinPitch(W2W, base, 0.5, 4*units.Micrometer, 10*units.Micrometer)
	if !errors.Is(err, ErrTrivial) {
		t.Fatalf("expected ErrTrivial, got %v", err)
	}
	if pitch != 4*units.Micrometer {
		t.Errorf("trivial rule should return the range floor, got %g", pitch)
	}
}

func TestMaxDefectDensity(t *testing.T) {
	base := core.Baseline()
	target := 0.9
	d, err := MaxDefectDensity(W2W, base, target,
		0.001*units.PerSquareCentimeter, 1*units.PerSquareCentimeter)
	if err != nil {
		t.Fatal(err)
	}
	y, err := base.WithDefectDensity(d).EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if y.Total < target-1e-6 {
		t.Errorf("yield at MaxDefectDensity = %g below target", y.Total)
	}
	yd, err := base.WithDefectDensity(d * 1.1).EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if yd.Total >= target {
		t.Errorf("10%% dirtier still meets target: %g", yd.Total)
	}
	// Sanity: the answer lives between the paper's two studied densities.
	if d < 0.01*units.PerSquareCentimeter || d > 0.1*units.PerSquareCentimeter {
		t.Errorf("MaxDefectDensity = %v, expected within (0.01, 0.1) cm⁻²", units.FormatDensity(d))
	}
}

func TestMaxRecess(t *testing.T) {
	// Recess-sensitive regime: fine pitch (10⁸ pads) and a clean process so
	// the defect term does not cap the total below the target. The search
	// floor starts at 6 nm: shallower recess fails the other way (Cu
	// protrusion past the dielectric plane), so yield is only monotone
	// above the protrusion guard band.
	base := core.Baseline().
		WithPitch(1 * units.Micrometer).
		WithDefectDensity(0.01 * units.PerSquareCentimeter)
	target := 0.9
	r, err := MaxRecess(W2W, base, target, 6*units.Nanometer, 14*units.Nanometer)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 6*units.Nanometer || r >= 14*units.Nanometer {
		t.Fatalf("MaxRecess = %g, expected interior", r)
	}
	p := base
	p.RecessTop, p.RecessBottom = r, r
	y, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if y.Total < target-1e-6 {
		t.Errorf("yield at MaxRecess = %g below target", y.Total)
	}
	p.RecessTop, p.RecessBottom = r+0.5*units.Nanometer, r+0.5*units.Nanometer
	y2, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if y2.Total >= target {
		t.Errorf("0.5 nm deeper recess still meets target: %g", y2.Total)
	}
}

func TestMaxWarpageD2W(t *testing.T) {
	base := core.Baseline().WithPitch(1 * units.Micrometer) // overlay-sensitive
	target := 0.55
	b, err := MaxWarpage(D2W, base, target, 1*units.Micrometer, 40*units.Micrometer)
	if err != nil {
		t.Fatal(err)
	}
	if b <= 1*units.Micrometer || b >= 40*units.Micrometer {
		t.Fatalf("MaxWarpage = %g, expected interior", b)
	}
	p := base
	p.Warpage = b * 1.2
	y, err := p.EvaluateD2W()
	if err != nil {
		t.Fatal(err)
	}
	if y.Total >= target {
		t.Errorf("20%% more warpage still meets target: %g", y.Total)
	}
}

func TestProcessWindow(t *testing.T) {
	base := core.Baseline()
	w, err := ProcessWindow(W2W, base,
		Axis{Lo: 1 * units.Micrometer, Hi: 8 * units.Micrometer, Steps: 6,
			Apply: func(p core.Params, v float64) core.Params { return p.WithPitch(v) }},
		Axis{Lo: 0.01 * units.PerSquareCentimeter, Hi: 0.5 * units.PerSquareCentimeter, Steps: 5, Log: true,
			Apply: func(p core.Params, v float64) core.Params { return p.WithDefectDensity(v) }},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.XValues) != 6 || len(w.YValues) != 5 || len(w.Yield) != 5 {
		t.Fatalf("window dims: %d x %d grid, %d rows", len(w.XValues), len(w.YValues), len(w.Yield))
	}
	// Yield must fall with density (down the rows at fixed pitch).
	for i := range w.XValues {
		for j := 1; j < len(w.YValues); j++ {
			if w.Yield[j][i] > w.Yield[j-1][i]+1e-9 {
				t.Errorf("yield rose with defect density at pitch %d", i)
			}
		}
	}
	// Feasibility fraction is sane and monotone in target.
	f80 := w.Feasible(0.8)
	f95 := w.Feasible(0.95)
	if f80 < f95 {
		t.Errorf("feasible(0.8)=%g < feasible(0.95)=%g", f80, f95)
	}
	if f80 <= 0 || f80 > 1 {
		t.Errorf("feasible fraction %g", f80)
	}
}

func TestProcessWindowBadAxis(t *testing.T) {
	base := core.Baseline()
	bad := Axis{Lo: 1, Hi: 0, Steps: 3, Apply: func(p core.Params, v float64) core.Params { return p }}
	good := Axis{Lo: 1e-6, Hi: 2e-6, Steps: 2, Apply: func(p core.Params, v float64) core.Params { return p }}
	if _, err := ProcessWindow(W2W, base, bad, good); err == nil {
		t.Error("accepted inverted axis")
	}
	logBad := Axis{Lo: 0, Hi: 1, Steps: 3, Log: true, Apply: good.Apply}
	if _, err := ProcessWindow(W2W, base, good, logBad); err == nil {
		t.Error("accepted log axis from zero")
	}
}

func TestMonotoneRuleBadRange(t *testing.T) {
	if _, err := MinPitch(W2W, core.Baseline(), 0.8, 5e-6, 5e-6); err == nil {
		t.Error("accepted empty pitch range")
	}
}
