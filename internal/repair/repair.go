// Package repair models interconnect redundancy for hybrid bonding — the
// yield-improvement technique the paper names as future work (§V:
// "developing fault tolerance and yield improvement techniques leveraging
// YAP") and motivates through the IEEE P3405 chiplet interconnect test and
// repair standard [6].
//
// The repair architecture is the standard mux-based spare-lane scheme: the
// die's N Cu connections are organized into groups of g signal lanes
// sharing r spare lanes; after bond-out test, a group remaps its failed
// lanes onto spares, so a group survives up to r lane failures and the die
// survives iff every group does.
//
// Redundancy rescues the mechanisms that fail individual pads
// independently — Cu recess variations and (in this model's convention)
// the random component of overlay — but not area defects: a void spans
// hundreds of micrometers and takes out entire groups regardless of
// spares, so Y_df is unaffected. That asymmetry is exactly why repair is
// most valuable at fine pitch, where recess loss dominates (§IV-B).
package repair

import (
	"fmt"
	"math"

	"yap/internal/core"
)

// Scheme describes a spare-lane repair architecture.
type Scheme struct {
	// GroupSize is g: the number of signal lanes per repair group.
	GroupSize int
	// Spares is r: the spare lanes available to each group.
	Spares int
}

// None returns the no-repair scheme (every lane must work).
func None() Scheme { return Scheme{GroupSize: 1, Spares: 0} }

// Validate reports whether the scheme is well-formed.
func (s Scheme) Validate() error {
	if s.GroupSize < 1 {
		return fmt.Errorf("repair: group size %d < 1", s.GroupSize)
	}
	if s.Spares < 0 {
		return fmt.Errorf("repair: negative spares %d", s.Spares)
	}
	return nil
}

// Overhead returns the fractional pad-count overhead of the scheme,
// r / g — the silicon price of the redundancy.
func (s Scheme) Overhead() float64 {
	return float64(s.Spares) / float64(s.GroupSize)
}

// GroupFailure returns the probability a group of g+r lanes cannot
// deliver g working lanes when each lane independently fails with
// probability pf: P(failures > r) over Binomial(g+r, pf).
//
// The failure tail is summed directly in log-space pmf terms. Summing the
// tail (rather than 1 − survival) keeps probabilities down to ~1e-300
// exact — essential because die yields raise the group term to the 10⁶th
// power, where 1e-16 of rounding in a near-one survival would masquerade
// as real yield loss.
func (s Scheme) GroupFailure(pf float64) float64 {
	if pf <= 0 {
		return 0
	}
	if pf >= 1 {
		return 1
	}
	n := s.GroupSize + s.Spares
	logPf := math.Log(pf)
	log1mPf := math.Log1p(-pf)
	// log C(n, k) built incrementally from k = 0.
	logC := 0.0
	var sum float64
	for k := 0; k <= n; k++ {
		if k > 0 {
			logC += math.Log(float64(n-k+1)) - math.Log(float64(k))
		}
		if k > s.Spares {
			sum += math.Exp(logC + float64(k)*logPf + float64(n-k)*log1mPf)
		}
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// GroupSurvival returns 1 − GroupFailure: the probability a group delivers
// its g signal lanes.
func (s Scheme) GroupSurvival(pf float64) float64 {
	return 1 - s.GroupFailure(pf)
}

// DieSurvival returns the probability all groups of a die with nSignal
// signal lanes survive. Partial trailing groups are treated as one more
// full group (pessimistic by at most one group). Evaluated through the
// failure tail and log1p so deep-tail group failures survive the
// million-group product.
func (s Scheme) DieSurvival(nSignal int, pf float64) float64 {
	if nSignal <= 0 {
		return 1
	}
	groups := (nSignal + s.GroupSize - 1) / s.GroupSize
	fail := s.GroupFailure(pf)
	if fail >= 1 {
		return 0
	}
	return math.Exp(float64(groups) * math.Log1p(-fail))
}

// Result is a repaired-yield evaluation.
type Result struct {
	// Scheme echoes the architecture evaluated.
	Scheme Scheme
	// PadFailProb is the per-lane failure probability from the Cu recess
	// model.
	PadFailProb float64
	// Unrepaired and Repaired are the recess die-yield terms without and
	// with the scheme.
	Unrepaired, Repaired float64
	// TotalUnrepaired and TotalRepaired are the full bonding yields.
	TotalUnrepaired, TotalRepaired float64
	// PhysicalPads is the pad count including spare overhead; it must
	// still fit the die at the process pitch for the scheme to be
	// realizable.
	PhysicalPads int
	// Realizable reports whether the die has room for the spares at the
	// given pitch.
	Realizable bool
}

// EvaluateW2W returns the W2W bonding yield with the repair scheme applied
// to the Cu recess mechanism. The die's pad budget at the process pitch is
// split into signal and spare lanes: nSignal = N·g/(g+r); spares consume
// real pads, so repair trades connectivity for yield rather than assuming
// free silicon.
func EvaluateW2W(p core.Params, s Scheme) (Result, error) {
	return evaluate(p, s, "w2w")
}

// EvaluateD2W is EvaluateW2W for die-to-wafer bonding.
func EvaluateD2W(p core.Params, s Scheme) (Result, error) {
	return evaluate(p, s, "d2w")
}

func evaluate(p core.Params, s Scheme, mode string) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	base, err := p.Evaluate(mode)
	if err != nil {
		return Result{}, err
	}
	total := p.PadArray().Pads()
	// The physical array is fixed by die size and pitch; the scheme
	// partitions it into signal lanes and spares.
	lanesPerGroup := s.GroupSize + s.Spares
	groups := total / lanesPerGroup
	pf := p.RecessParams().PadFailProb()

	r := Result{
		Scheme:          s,
		PadFailProb:     pf,
		Unrepaired:      base.Recess,
		TotalUnrepaired: base.Total,
		PhysicalPads:    total,
		Realizable:      groups >= 1,
	}
	if !r.Realizable {
		return r, fmt.Errorf("repair: %d pads cannot host a %d-lane group", total, lanesPerGroup)
	}
	// Repaired recess yield over the group structure, via the failure tail
	// so deep-tail group failures survive the million-group product.
	fail := s.GroupFailure(pf)
	repairedRecess := 0.0
	if fail < 1 {
		repairedRecess = math.Exp(float64(groups) * math.Log1p(-fail))
	}
	r.Repaired = repairedRecess
	r.TotalRepaired = base.Overlay * repairedRecess * base.Defect
	return r, nil
}

// RequiredSpares returns the smallest spare count r (searching 0..maxR)
// for which the repaired recess yield meets the target, at group size g.
// Returns an error if even maxR spares cannot reach it.
func RequiredSpares(p core.Params, groupSize, maxR int, target float64) (int, error) {
	if groupSize < 1 {
		return 0, fmt.Errorf("repair: group size %d < 1", groupSize)
	}
	for r := 0; r <= maxR; r++ {
		res, err := EvaluateW2W(p, Scheme{GroupSize: groupSize, Spares: r})
		if err != nil {
			return 0, err
		}
		if res.Repaired >= target {
			return r, nil
		}
	}
	return 0, fmt.Errorf("repair: target %g unreachable with ≤%d spares per %d lanes",
		target, maxR, groupSize)
}
