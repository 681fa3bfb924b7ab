package core

import (
	"math"
	"testing"

	"yap/internal/units"
)

func TestW2WDieYieldsConsistentWithWaferAverage(t *testing.T) {
	// A fine-pitch die with a coarse io column, at a σ₁ that makes the
	// overlay term informative: the die map must follow the layout.
	fine := Baseline().WithPitch(1 * units.Micrometer)
	fine.RandomMisalignmentSigma = 20 * units.Nanometer
	fine.PadLayout = goldenTwoPitch().PadLayout
	for name, p := range map[string]Params{"baseline": Baseline(), "fine two-pitch": fine} {
		dies, err := p.W2WDieYields()
		if err != nil {
			t.Fatal(err)
		}
		if len(dies) != p.Layout().DieCount() {
			t.Fatalf("%s: dies = %d, want %d", name, len(dies), p.Layout().DieCount())
		}
		model, err := p.EvaluateW2W()
		if err != nil {
			t.Fatal(err)
		}
		var sumOverlay, sumTotal float64
		for _, d := range dies {
			for mech, v := range map[string]float64{
				"overlay": d.Overlay, "recess": d.Recess, "defect": d.Defect, "total": d.Total,
			} {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("%s: %s yield %g outside [0,1]", name, mech, v)
				}
			}
			if math.Abs(d.Total-d.Overlay*d.Recess*d.Defect) > 1e-12 {
				t.Fatalf("%s: total is not the product", name)
			}
			if d.Recess != model.Recess {
				t.Fatalf("%s: per-die recess %g vs model %g", name, d.Recess, model.Recess)
			}
			sumOverlay += d.Overlay
			sumTotal += d.Total
		}
		// Eq. 8: the wafer overlay yield is exactly the per-die average.
		if got := sumOverlay / float64(len(dies)); math.Abs(got-model.Overlay) > 1e-9 {
			t.Errorf("%s: mean per-die overlay %g vs Eq. 8 %g", name, got, model.Overlay)
		}
		// With uniform defects, the per-die totals average to the wafer total.
		if got := sumTotal / float64(len(dies)); math.Abs(got-model.Total) > 1e-6 {
			t.Errorf("%s: mean per-die total %g vs model %g", name, got, model.Total)
		}
	}
}

func TestW2WDieYieldsEdgeFalloff(t *testing.T) {
	// At sub-µm pitch the systematic magnification kills edge dies first:
	// the innermost-bin yield must exceed the outermost-bin yield.
	p := Baseline().WithPitch(0.8 * units.Micrometer)
	dies, err := p.W2WDieYields()
	if err != nil {
		t.Fatal(err)
	}
	centers, yields := RadialProfile(dies, 6, p.WaferRadius())
	if len(centers) < 3 {
		t.Fatalf("profile too sparse: %d bins", len(centers))
	}
	if !(yields[0] > yields[len(yields)-1]+0.05) {
		t.Errorf("expected center-to-edge falloff: %v", yields)
	}
	// Monotone-ish: every bin ≥ the last bin.
	last := yields[len(yields)-1]
	for i, y := range yields[:len(yields)-1] {
		if y < last-1e-9 {
			t.Errorf("bin %d (%g) below edge bin (%g)", i, y, last)
		}
	}
}

func TestW2WDieYieldsClusteringRaisesEdgeDefectExposure(t *testing.T) {
	p := Baseline()
	p.RadialDefectClustering = 3
	dies, err := p.W2WDieYields()
	if err != nil {
		t.Fatal(err)
	}
	// Find the most central and most peripheral dies.
	var center, edge DieYield
	minR, maxR := math.Inf(1), -1.0
	for _, d := range dies {
		if r := d.Radius(); r < minR {
			minR, center = r, d
		}
		if r := d.Radius(); r > maxR {
			maxR, edge = r, d
		}
	}
	if center.Defect <= edge.Defect {
		t.Errorf("clustered defects: center %g should out-yield edge %g",
			center.Defect, edge.Defect)
	}
}

func TestRadialProfileEdgeCases(t *testing.T) {
	if c, y := RadialProfile(nil, 5, 0.15); c != nil || y != nil {
		t.Error("empty dies should give nil profile")
	}
	p := Baseline()
	dies, err := p.W2WDieYields()
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := RadialProfile(dies, 0, p.WaferRadius()); c != nil {
		t.Error("zero bins should give nil")
	}
	// One bin = overall mean.
	c, y := RadialProfile(dies, 1, p.WaferRadius())
	if len(c) != 1 || len(y) != 1 {
		t.Fatalf("one-bin profile: %d/%d", len(c), len(y))
	}
	var sum float64
	for _, d := range dies {
		sum += d.Total
	}
	if math.Abs(y[0]-sum/float64(len(dies))) > 1e-12 {
		t.Errorf("one-bin mean = %g, want %g", y[0], sum/float64(len(dies)))
	}
}

func TestW2WDieYieldsRejectsInvalid(t *testing.T) {
	p := Baseline()
	p.DefectShape = 1
	if _, err := p.W2WDieYields(); err == nil {
		t.Error("invalid params accepted")
	}
}
