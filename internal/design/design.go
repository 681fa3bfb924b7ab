// Package design implements the co-optimization loops YAP's speed enables
// (abstract: "YAP enables the co-optimization of packaging technologies,
// assembly design rules, and overall design methodologies"): inverting the
// yield model to extract assembly design rules (finest pitch, dirtiest
// acceptable cleanroom, loosest recess control meeting a yield target) and
// exploring two-dimensional process windows.
//
// All searches run on the analytic model — each probe costs micro- to
// milliseconds — which is exactly the pathfinding use the paper contrasts
// with 12-hour simulations.
package design

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"yap/internal/core"
)

// Mode selects the bonding style a design rule is derived for.
type Mode int

const (
	// W2W selects wafer-to-wafer bonding (Eq. 22).
	W2W Mode = iota
	// D2W selects die-to-wafer bonding (Eq. 28).
	D2W
)

func (m Mode) String() string {
	if m == D2W {
		return "D2W"
	}
	return "W2W"
}

// Evaluate returns the bonding yield of p under the mode.
func (m Mode) Evaluate(p core.Params) (core.Breakdown, error) {
	// The lower-cased name is core's mode key.
	return p.Evaluate(strings.ToLower(m.String()))
}

// ErrInfeasible is returned when no value in the searched range meets the
// yield target.
var ErrInfeasible = errors.New("design: target yield infeasible in the searched range")

// ErrTrivial is returned when the entire searched range already meets the
// target, so no binding design rule exists.
var ErrTrivial = errors.New("design: target yield met across the whole range; no binding rule")

// yieldAt evaluates total yield with pitch-rule pad sizing applied where
// relevant.
func yieldAt(m Mode, p core.Params) (float64, error) {
	b, err := m.Evaluate(p)
	if err != nil {
		return 0, err
	}
	return b.Total, nil
}

// monotoneRule bisects for the boundary value where yield crosses target.
// mutate(base, x) applies the candidate design value; yield must be
// monotone non-decreasing in x over [lo, hi] ("larger x is safer"). The
// returned x is the smallest searched value meeting the target, to within
// tol.
func monotoneRule(m Mode, base core.Params, mutate func(core.Params, float64) core.Params,
	lo, hi, target, tol float64) (float64, error) {
	if !(hi > lo) || tol <= 0 {
		return 0, fmt.Errorf("design: bad search range [%g, %g] / tol %g", lo, hi, tol)
	}
	yLo, err := yieldAt(m, mutate(base, lo))
	if err != nil {
		return 0, err
	}
	if yLo >= target {
		return lo, ErrTrivial
	}
	yHi, err := yieldAt(m, mutate(base, hi))
	if err != nil {
		return 0, err
	}
	if yHi < target {
		return 0, ErrInfeasible
	}
	for hi-lo > tol {
		mid := 0.5 * (lo + hi)
		y, err := yieldAt(m, mutate(base, mid))
		if err != nil {
			return 0, err
		}
		if y >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// MinPitch returns the finest bonding pitch (with the case-study pad
// sizing rule d₂ = p/2, d₁ = p/3) that still meets the target yield —
// the assembly design rule pitch scaling asks for. Searches
// [pitchLo, pitchHi]; yield increases with pitch (fewer pads, larger δ).
func MinPitch(m Mode, base core.Params, target, pitchLo, pitchHi float64) (float64, error) {
	return monotoneRule(m, base, func(p core.Params, pitch float64) core.Params {
		return p.WithPitch(pitch)
	}, pitchLo, pitchHi, target, 1e-9)
}

// MaxDefectDensity returns the dirtiest particle environment (largest D_t,
// in m⁻²) that still meets the target yield — the cleanroom specification.
// Yield decreases with density, so the search runs on −D_t internally.
func MaxDefectDensity(m Mode, base core.Params, target, dLo, dHi float64) (float64, error) {
	v, err := monotoneRule(m, base, func(p core.Params, negD float64) core.Params {
		return p.WithDefectDensity(-negD)
	}, -dHi, -dLo, target, math.Max(1e-9, dLo*1e-6))
	if err != nil {
		return 0, err
	}
	return -v, nil
}

// MaxRecess returns the deepest mean Cu recess (per pad, meters) that
// still meets the target yield — the CMP control specification. Yield
// falls as recess deepens (the annealing expansion budget runs out).
func MaxRecess(m Mode, base core.Params, target, rLo, rHi float64) (float64, error) {
	v, err := monotoneRule(m, base, func(p core.Params, negR float64) core.Params {
		p.RecessTop = -negR
		p.RecessBottom = -negR
		return p
	}, -rHi, -rLo, target, 1e-12)
	if err != nil {
		return 0, err
	}
	return -v, nil
}

// MaxWarpage returns the largest bonded-wafer warpage meeting the target
// yield — the run-out compensation specification of [16].
func MaxWarpage(m Mode, base core.Params, target, bLo, bHi float64) (float64, error) {
	v, err := monotoneRule(m, base, func(p core.Params, negB float64) core.Params {
		p.Warpage = -negB
		return p
	}, -bHi, -bLo, target, 1e-9)
	if err != nil {
		return 0, err
	}
	return -v, nil
}

// Window is a two-dimensional process-window exploration: a grid of yield
// evaluations over two swept parameters.
type Window struct {
	// XValues and YValues are the grid coordinates.
	XValues, YValues []float64
	// Yield[j][i] is the total yield at (XValues[i], YValues[j]).
	Yield [][]float64
}

// Feasible returns the fraction of grid cells meeting the target.
func (w *Window) Feasible(target float64) float64 {
	total, ok := 0, 0
	for _, row := range w.Yield {
		for _, y := range row {
			total++
			if y >= target {
				ok++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}

// Axis describes one swept dimension of a process window.
type Axis struct {
	// Lo and Hi bound the sweep; Steps ≥ 2 points are spaced linearly
	// (logarithmically when Log is set).
	Lo, Hi float64
	Steps  int
	Log    bool
	// Apply mutates the parameter set with a candidate value.
	Apply func(core.Params, float64) core.Params
}

func (a Axis) values() ([]float64, error) {
	if a.Steps < 2 || !(a.Hi > a.Lo) || a.Apply == nil {
		return nil, fmt.Errorf("design: bad axis [%g, %g] x%d", a.Lo, a.Hi, a.Steps)
	}
	if a.Log && a.Lo <= 0 {
		return nil, fmt.Errorf("design: log axis needs positive bounds, got %g", a.Lo)
	}
	vs := make([]float64, a.Steps)
	for i := range vs {
		f := float64(i) / float64(a.Steps-1)
		if a.Log {
			vs[i] = math.Exp(math.Log(a.Lo) + f*(math.Log(a.Hi)-math.Log(a.Lo)))
		} else {
			vs[i] = a.Lo + f*(a.Hi-a.Lo)
		}
	}
	return vs, nil
}

// ProcessWindow evaluates the yield over the 2-D grid of the two axes.
func ProcessWindow(m Mode, base core.Params, x, y Axis) (*Window, error) {
	xs, err := x.values()
	if err != nil {
		return nil, err
	}
	ys, err := y.values()
	if err != nil {
		return nil, err
	}
	w := &Window{XValues: xs, YValues: ys, Yield: make([][]float64, len(ys))}
	for j, yv := range ys {
		w.Yield[j] = make([]float64, len(xs))
		for i, xv := range xs {
			p := y.Apply(x.Apply(base, xv), yv)
			total, err := yieldAt(m, p)
			if err != nil {
				return nil, fmt.Errorf("design: window (%g, %g): %w", xv, yv, err)
			}
			w.Yield[j][i] = total
		}
	}
	return w, nil
}
