package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"yap/internal/core"
	"yap/internal/layout"
	"yap/internal/units"
)

func TestRunAllModes(t *testing.T) {
	p := core.Baseline()
	for _, mode := range []string{"w2w", "d2w", "both"} {
		if err := run(io.Discard, p, mode, 1000*units.SquareMillimeter); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
}

func TestRunUnknownMode(t *testing.T) {
	if err := run(io.Discard, core.Baseline(), "bogus", 1e-3); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestRunInvalidParams(t *testing.T) {
	p := core.Baseline()
	p.DefectShape = 1
	if err := run(io.Discard, p, "w2w", 1e-3); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestRunPrintsLayoutPadCount: a pad layout's pad count, not the uniform
// grid's, is what the header reports.
func TestRunPrintsLayoutPadCount(t *testing.T) {
	p := core.Baseline()
	l := layout.Layout{Regions: []layout.Region{
		{Name: "core", X0: -5e-3, Y0: -5e-3, X1: 2e-3, Y1: 5e-3},
		{Name: "io", X0: 2e-3, Y0: -5e-3, X1: 5e-3, Y1: 5e-3,
			Pitch: 12 * units.Micrometer, TopPadDiameter: 4 * units.Micrometer,
			BottomPadDiameter: 6 * units.Micrometer},
	}}
	p.PadLayout = &l
	if p.TotalPads() == p.PadArray().Pads() {
		t.Fatal("layout does not change the pad count")
	}
	var out bytes.Buffer
	if err := run(&out, p, "w2w", 1e-3); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("pads/die=%d ", p.TotalPads()); !strings.Contains(out.String(), want) {
		t.Errorf("output %q lacks %q", out.String(), want)
	}
}
