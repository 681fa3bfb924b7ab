// Command yapmodel evaluates the YAP near-analytical bonding-yield model
// for a parameter set and prints the per-mechanism breakdown (Eq. 22 for
// W2W, Eq. 28 for D2W) together with the Y_sys system yield.
//
// Usage:
//
//	yapmodel [-mode w2w|d2w|both] [-pitch um] [-die-area mm2]
//	         [-density cm-2] [-system-area mm2] [-table1]
//
// With no flags it reports the Table I baseline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"yap/internal/core"
	"yap/internal/experiments"
	"yap/internal/units"
)

func main() {
	var (
		mode       = flag.String("mode", "both", "bonding style: w2w, d2w or both")
		config     = flag.String("config", "", "JSON process file (missing fields default to Table I)")
		saveConfig = flag.String("save-config", "", "write the effective parameters to this JSON file and exit")
		pitch      = flag.Float64("pitch", 0, "bonding pitch in um (0 = Table I baseline; pads resize as d2=p/2, d1=p/3)")
		dieArea    = flag.Float64("die-area", 0, "square chiplet area in mm^2 (0 = baseline 10x10 mm)")
		density    = flag.Float64("density", 0, "particle defect density in cm^-2 (0 = baseline 0.1)")
		systemArea = flag.Float64("system-area", 1000, "2.5D system silicon area in mm^2 for Y_sys")
		table1     = flag.Bool("table1", false, "print the full parameter table (paper Table I) and exit")
	)
	flag.Parse()

	p := core.Baseline()
	if *config != "" {
		loaded, err := core.LoadParams(*config)
		if err != nil {
			// Unknown fields and out-of-range values are rejected at load
			// time (strict decode + Validate), so a typo'd field name fails
			// here instead of silently evaluating the Table I baseline.
			fmt.Fprintln(os.Stderr, "yapmodel: invalid -config:", err)
			os.Exit(1)
		}
		p = loaded
	}
	if *pitch > 0 {
		p = p.WithPitch(*pitch * units.Micrometer)
	}
	if *dieArea > 0 {
		p = p.WithDieArea(*dieArea * units.SquareMillimeter)
	}
	if *density > 0 {
		p = p.WithDefectDensity(*density * units.PerSquareCentimeter)
	}

	if *saveConfig != "" {
		if err := p.SaveParams(*saveConfig); err != nil {
			fmt.Fprintln(os.Stderr, "yapmodel:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *saveConfig)
		return
	}
	if *table1 {
		fmt.Println("Baseline parameters (paper Table I + DESIGN.md 2):")
		fmt.Println(experiments.TableI(p).Text())
		return
	}

	if err := run(os.Stdout, p, *mode, *systemArea*units.SquareMillimeter); err != nil {
		fmt.Fprintln(os.Stderr, "yapmodel:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, p core.Params, mode string, systemArea float64) error {
	fmt.Fprintf(w, "pitch=%s  pads(d1/d2)=%s/%s  die=%s x %s  D_t=%s\n",
		units.FormatMeters(p.Pitch), units.FormatMeters(p.TopPadDiameter), units.FormatMeters(p.BottomPadDiameter),
		units.FormatMeters(p.DieWidth), units.FormatMeters(p.DieHeight), units.FormatDensity(p.DefectDensity))
	fmt.Fprintf(w, "pads/die=%d  dies/wafer=%d  delta=%s\n",
		p.TotalPads(), p.Layout().DieCount(), units.FormatMeters(p.PadGeometry().MaxMisalignment()))

	if mode == "w2w" || mode == "both" {
		b, err := p.EvaluateW2W()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "W2W model:  %v  (limited by %s)\n", b, b.Limiter())
	}
	if mode == "d2w" || mode == "both" {
		b, err := p.EvaluateD2W()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "D2W model:  %v  (limited by %s)\n", b, b.Limiter())
		y, n, err := p.SystemYield(systemArea)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Y_sys(%s, %d chiplets) = %s\n", units.FormatArea(systemArea), n, units.Percent(y))
	}
	if mode != "w2w" && mode != "d2w" && mode != "both" {
		return fmt.Errorf("unknown mode %q", mode)
	}
	return nil
}
