// Package tcb extends YAP to thermal-compression bonding (TCB) of solder
// microbumps — the second future-work direction the paper names (§V:
// "extending YAP to model other forms of fine-pitch bonding such as
// thermal-compression bonding").
//
// TCB joins a die to a substrate or wafer by pressing reflowed solder
// microbumps onto landing pads. Its failure mechanisms map onto YAP's
// framework with three substitutions, each documented where modeled:
//
//   - Overlay: the same misalignment geometry as hybrid bonding (Eq. 5–6
//     with bump and pad playing the top/bottom roles), but the shorting
//     hazard is solder bridging rather than dielectric breakdown, so the
//     critical-distance constraint guards the molten-solder gap.
//   - Joint height: solder collapse absorbs bump-height variation up to a
//     process margin; a joint opens when the summed height deviation
//     exceeds it (the recess model's role, with collapse in place of Cu
//     expansion and no delamination side — solder is compliant).
//   - Particles: the bump standoff keeps the surfaces apart, so only
//     particles thicker than the standoff can wedge the die; there is no
//     bond wave and hence no void tails. The Glang law's tail above the
//     standoff sets the effective killer density.
//
// The package reuses the overlay geometry and numeric substrates, so the
// TCB model inherits their tests.
package tcb

import (
	"fmt"
	"math"

	"yap/internal/core"
	"yap/internal/num"
	"yap/internal/overlay"
	"yap/internal/units"
	"yap/internal/wafer"
)

// Params describes a TCB process. All lengths in meters.
type Params struct {
	// Pitch is the bump pitch.
	Pitch float64
	// BumpDiameter and PadDiameter are the solder bump and landing pad
	// diameters (bump ≤ pad, mirroring the top/bottom pad roles).
	BumpDiameter, PadDiameter float64
	// DieWidth and DieHeight are the die dimensions.
	DieWidth, DieHeight float64
	// ContactAreaFraction is k_ca: minimum wetted fraction of the bump
	// cross-section for an acceptable joint resistance.
	ContactAreaFraction float64
	// BridgeFraction is k_br: the fraction of the nominal bump-to-pad gap
	// that must survive misalignment to prevent solder bridging.
	BridgeFraction float64
	// Sigma1 is the random placement error std dev σ₁ (TCB bonders are
	// coarser than HB aligners; hundreds of nm is typical).
	Sigma1 float64
	// Dist is the systematic placement distortion at the reference radius.
	Dist overlay.Distortion
	// RefRadius is the radius the distortion is characterized at.
	RefRadius float64
	// Standoff is the post-collapse joint height: particles thinner than
	// this are absorbed harmlessly.
	Standoff float64
	// HeightSigma is the per-joint std dev of the summed bump+pad height
	// deviation.
	HeightSigma float64
	// CollapseMargin is the height deviation the solder collapse absorbs:
	// joints open when |Δh| exceeds it.
	CollapseMargin float64
	// DefectDensity, MinParticleThickness and DefectShape follow the
	// Glang law (Eq. 17).
	DefectDensity, MinParticleThickness, DefectShape float64
}

// DefaultParams returns a representative 40 µm-pitch TCB process
// (mainstream microbump flip-chip numbers) sharing the paper's particle
// environment.
func DefaultParams() Params {
	hb := core.Baseline()
	return Params{
		Pitch:                40 * units.Micrometer,
		BumpDiameter:         20 * units.Micrometer,
		PadDiameter:          25 * units.Micrometer,
		DieWidth:             10 * units.Millimeter,
		DieHeight:            10 * units.Millimeter,
		ContactAreaFraction:  0.75,
		BridgeFraction:       0.5,
		Sigma1:               200 * units.Nanometer,
		Dist:                 hb.Distortion(),
		RefRadius:            hb.WaferRadius(),
		Standoff:             10 * units.Micrometer,
		HeightSigma:          0.5 * units.Micrometer,
		CollapseMargin:       3 * units.Micrometer,
		DefectDensity:        hb.DefectDensity,
		MinParticleThickness: hb.MinParticleThickness,
		DefectShape:          hb.DefectShape,
	}
}

// Validate reports whether the parameters are physical.
func (p Params) Validate() error {
	if err := p.padGeometry().Validate(); err != nil {
		return fmt.Errorf("tcb: %w", err)
	}
	switch {
	case p.DieWidth <= 0 || p.DieHeight <= 0:
		return fmt.Errorf("tcb: non-positive die %g x %g", p.DieWidth, p.DieHeight)
	case p.Sigma1 < 0:
		return fmt.Errorf("tcb: negative sigma1 %g", p.Sigma1)
	case p.RefRadius <= 0:
		return fmt.Errorf("tcb: non-positive reference radius %g", p.RefRadius)
	case p.Standoff <= 0:
		return fmt.Errorf("tcb: non-positive standoff %g", p.Standoff)
	case p.HeightSigma < 0:
		return fmt.Errorf("tcb: negative height sigma %g", p.HeightSigma)
	case p.CollapseMargin <= 0:
		return fmt.Errorf("tcb: non-positive collapse margin %g", p.CollapseMargin)
	case p.DefectDensity < 0:
		return fmt.Errorf("tcb: negative defect density %g", p.DefectDensity)
	case p.MinParticleThickness <= 0:
		return fmt.Errorf("tcb: non-positive t0 %g", p.MinParticleThickness)
	case p.DefectShape <= 1:
		return fmt.Errorf("tcb: shape factor z=%g must exceed 1", p.DefectShape)
	}
	return nil
}

// padGeometry maps the bump/pad stack onto the overlay submodel's
// geometry: the bump is the (smaller) top pad, the landing pad the bottom,
// and BridgeFraction plays k_cd's role against solder bridging.
func (p Params) padGeometry() overlay.PadGeometry {
	return overlay.PadGeometry{
		Pitch:                    p.Pitch,
		TopDiameter:              p.BumpDiameter,
		BottomDiameter:           p.PadDiameter,
		ContactAreaFraction:      p.ContactAreaFraction,
		CriticalDistanceFraction: p.BridgeFraction,
	}
}

// Joints returns the microbump count of the die.
func (p Params) Joints() int {
	return wafer.PadArrayFor(p.DieWidth, p.DieHeight, p.Pitch).Pads()
}

// Delta returns the survivable placement error δ (wetting + bridging).
func (p Params) Delta() float64 { return p.padGeometry().MaxMisalignment() }

// OverlayYield returns the die possibility of survival against placement
// error, reusing the D2W overlay machinery (TCB places one die at a time,
// aligning on its own fiducials): the deterministic, zero-spread case of
// the uniform die.
func (p Params) OverlayYield() float64 {
	m := overlay.Model{Pads: p.padGeometry(), Dist: p.Dist, Sigma1: p.Sigma1}
	return m.ExpectedDieYieldD2WRegions(p.DieWidth, p.DieHeight, p.RefRadius,
		overlay.PlacementSpread{}, []overlay.PadRegion{m.UniformRegion(p.DieWidth, p.DieHeight)})
}

// JointHeightPOS returns the probability one joint's height deviation is
// absorbed by the solder collapse: P(|Δh| ≤ margin) for Δh ~ N(0, σ_h²).
func (p Params) JointHeightPOS() float64 {
	return num.NormalInterval(-p.CollapseMargin, p.CollapseMargin, 0, p.HeightSigma)
}

// HeightYield returns the all-joints-close probability POS^N, evaluated
// through the same tail-safe log path as the Cu recess model.
func (p Params) HeightYield() float64 {
	n := p.Joints()
	if n == 0 {
		return 0
	}
	// Tail-accurate failure probability of one joint.
	const invSqrt2 = 0.7071067811865476
	pf := math.Erfc(p.CollapseMargin / p.HeightSigma * invSqrt2)
	if p.HeightSigma == 0 {
		pf = 0
	}
	if pf >= 1 {
		return 0
	}
	return math.Exp(float64(n) * math.Log1p(-pf))
}

// KillerDensity returns the density of particles thick enough to defeat
// the standoff: D_t·P(t > standoff) under the Glang law. Particles below
// t₀ do not exist; a standoff below t₀ leaves every particle lethal.
func (p Params) KillerDensity() float64 {
	if p.Standoff <= p.MinParticleThickness {
		return p.DefectDensity
	}
	return p.DefectDensity * math.Pow(p.MinParticleThickness/p.Standoff, p.DefectShape-1)
}

// DefectYield returns the Poisson yield against standoff-defeating
// particles. Without a bond wave there are no tails; a lethal particle
// wedges the die wherever it lands under it, so the critical area is the
// die area.
func (p Params) DefectYield() float64 {
	return math.Exp(-p.KillerDensity() * p.DieWidth * p.DieHeight)
}

// Evaluate returns the combined TCB yield breakdown, assuming (as the HB
// model does) independent mechanisms.
func (p Params) Evaluate() (core.Breakdown, error) {
	if err := p.Validate(); err != nil {
		return core.Breakdown{}, err
	}
	b := core.Breakdown{
		Overlay: p.OverlayYield(),
		Recess:  p.HeightYield(), // height variation plays the recess role
		Defect:  p.DefectYield(),
	}
	b.Total = b.Overlay * b.Recess * b.Defect
	return b, nil
}
