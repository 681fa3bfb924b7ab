package overlay

import (
	"math"

	"yap/internal/num"
	"yap/internal/wafer"
)

// PlacementSpread is the die-to-die variation of the systematic overlay
// terms in D2W bonding (§III-E-1: "the systematic overlay error
// independently happens die-to-die"). Each die placement draws its own
// translation, rotation and magnification around the process means; the
// spreads below are the standard deviations of those draws, quoted at the
// same reference radius as the Distortion means (Table I's starred
// "Mean (Std.)" entries).
type PlacementSpread struct {
	// TXSigma and TYSigma are the translation spreads (m).
	TXSigma, TYSigma float64
	// RotationSigma is the rotation spread (rad).
	RotationSigma float64
	// MagnificationSigma is the magnification spread (dimensionless),
	// typically k_mag times the warpage spread via Eq. 2.
	MagnificationSigma float64
}

// Zero reports whether the spread is entirely deterministic.
func (s PlacementSpread) Zero() bool {
	return s.TXSigma == 0 && s.TYSigma == 0 && s.RotationSigma == 0 && s.MagnificationSigma == 0
}

// ExpectedDieYieldD2WRegions returns Y_ovl,D2W (Eq. 23) averaged over the
// die-to-die placement variation: E[∏ POS_region] with (T_x, T_y, α, E)
// drawn independently normal around the model's Distortion with the given
// spreads, each draw rescaled to the die (ScaleToDie) and evaluated region
// by region in die-local coordinates (SumDiePOS of one die centered at the
// origin). The die aligns on its own markers, so the wafer-level rotation
// and magnification are rescaled by the refRadius-to-half-diagonal ratio;
// refRadius is the radius at which they were characterized (the wafer
// radius for Table I numbers). A uniform die is the one region
// UniformRegion; a zero spread is the deterministic die POS.
//
// T_x, T_y and α are smooth at the σ₁ scale and use the tensor 7-point
// Gauss–Hermite rule, folded exactly as num.ExpectNormal folds it; E, whose
// spread moves the corner misalignment by far more than the random-error
// width and makes POS nearly a step function of it, is integrated
// adaptively. Table I takes 153 magnification nodes × 343 = ~52k
// placement nodes, so the per-node work is kept to a few flops per region
// corner: α·scale·corner is tabulated once per evaluate (together with the
// translation nodes it is added to) and E·scale·corner once per
// magnification node; the worst corner of a region is picked by squared
// norm so one Hypot serves it (maxHypot); and a region whose corners all
// lie inside its saturation radius (saturatedNorm2) contributes exactly 1
// with no Hypot or erf at all. Every displacement, sum and product is the
// one the plain ScaleToDie → SumDiePOS evaluation at that node makes,
// so the result is bit-identical to it.
func (m Model) ExpectedDieYieldD2WRegions(dieW, dieH, refRadius float64, spread PlacementSpread, regions []PadRegion) float64 {
	if spread.Zero() {
		local := m
		local.Dist = m.Dist.ScaleToDie(refRadius, wafer.HalfDiagonal(dieW, dieH))
		return local.SumDiePOS([]wafer.Die{{}}, regions, nil)
	}
	// ScaleToDie leaves rotation and magnification unscaled for a
	// degenerate die, and x·1 == x.
	scale := 1.0
	if halfDiag := wafer.HalfDiagonal(dieW, dieH); halfDiag > 0 {
		scale = refRadius / halfDiag
	}
	tx := num.NewNormalRule(m.Dist.TX, spread.TXSigma)
	ty := num.NewNormalRule(m.Dist.TY, spread.TYSigma)
	rot := num.NewNormalRule(m.Dist.Rotation, spread.RotationSigma)

	// Corner c = 4·region + k (Rect.Corners order) of rotation node l sits
	// at l·nc + c in a block of rot.N·nc. Block i of xs and block j of ys
	// hold T_x,i − α_l·scale·Y_c and T_y,j + α_l·scale·X_c; ex and ey hold
	// E·scale·X_c and E·scale·Y_c for the current magnification node; sat2
	// holds each corner's region saturation bound; n2 receives the squared
	// corner norms of one (T_x, T_y) pair. A uniform die fits the stack.
	nc := 4 * len(regions)
	blk := rot.N * nc
	var stack [(2*7 + 4) * 7 * 4]float64
	buf := stack[:]
	if n := (tx.N + ty.N + 4) * blk; n > len(buf) {
		buf = make([]float64, n)
	}
	take := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	xs, ys := take(tx.N*blk), take(ty.N*blk)
	ex, ey, sat2, n2 := take(blk), take(blk), take(blk), take(blk)
	for l := 0; l < rot.N; l++ {
		a := rot.X[l] * scale
		for r, reg := range regions {
			bound := saturatedNorm2(reg.Delta, m.Sigma1)
			for k, p := range reg.Rect.Corners() {
				c := l*nc + 4*r + k
				sat2[c] = bound
				ay, ax := a*p.Y, a*p.X
				for i := 0; i < tx.N; i++ {
					xs[i*blk+c] = tx.X[i] - ay
				}
				for j := 0; j < ty.N; j++ {
					ys[j*blk+c] = ty.X[j] + ax
				}
			}
		}
	}
	// rotFold is the α fold for one (T_x, T_y) pair, given the pair's
	// blocks and squared corner norms: the region product of SumDiePOS
	// at each rotation node. allSaturated is its value when every POS is
	// exactly 1 (W·1 == W).
	rotFold := func(xb, yb, n2 []float64) float64 {
		sum := num.NegZero
		for l := 0; l < rot.N; l++ {
			pos := 1.0
			for r, reg := range regions {
				c := l*nc + 4*r
				q := (*[4]float64)(n2[c : c+4])
				if s2 := sat2[c]; q[0] < s2 && q[1] < s2 && q[2] < s2 && q[3] < s2 {
					continue // PadPOS is exactly 1 and pos·1 == pos
				}
				var dx, dy [4]float64
				for k := range dx {
					dx[k], dy[k] = xb[c+k]+ex[c+k], yb[c+k]+ey[c+k]
				}
				pos *= PadPOS(maxHypot(&dx, &dy, q, max(q[0], q[1], q[2], q[3])), reg.Delta, m.Sigma1)
			}
			sum += rot.W[l] * pos
		}
		return sum * rot.Norm
	}
	allSaturated := num.NegZero
	for l := 0; l < rot.N; l++ {
		allSaturated += rot.W[l]
	}
	allSaturated *= rot.Norm

	// The T_x and T_y folds around it, T_x outermost, each starting from −0
	// so that the first term enters the sum unrounded (num.NegZero).
	y := num.ExpectNormalAdaptive(func(mag float64) float64 {
		e := mag * scale
		for l := 0; l < rot.N; l++ {
			for r, reg := range regions {
				for k, p := range reg.Rect.Corners() {
					c := l*nc + 4*r + k
					ex[c], ey[c] = e*p.X, e*p.Y
				}
			}
		}
		sumX := num.NegZero
		for i := 0; i < tx.N; i++ {
			sumY := num.NegZero
			for j := 0; j < ty.N; j++ {
				// The reslices to len(sat2) let the compiler drop the
				// bounds checks of this, the hottest loop.
				xb, yb := xs[i*blk : (i+1)*blk][:len(sat2)], ys[j*blk : (j+1)*blk][:len(sat2)]
				ex, ey, n2 := ex[:len(sat2)], ey[:len(sat2)], n2[:len(sat2)]
				saturated := true
				for c, b := range sat2 {
					dx, dy := xb[c]+ex[c], yb[c]+ey[c]
					d2 := dx*dx + dy*dy
					n2[c] = d2
					if !(d2 < b) {
						saturated = false
					}
				}
				sumRot := allSaturated
				if !saturated {
					sumRot = rotFold(xb, yb, n2)
				}
				sumY += ty.W[j] * sumRot
			}
			sumX += tx.W[i] * (sumY * ty.Norm)
		}
		return sumX * tx.Norm
	}, m.Dist.Magnification, spread.MagnificationSigma)
	// Quadrature residue can push a saturated probability past its bounds
	// by ~1e-10; a yield must stay in [0, 1].
	return num.Clamp(y, 0, 1)
}

// saturatedNorm2 returns a squared systematic error below which
// PadPOS(s, delta, sigma1) is exactly 1, or 0 when none is. math.Erf
// returns exactly ±1 from |x| ≥ 6 on, so PadPOS is exactly
// ½·(1 − (−1)) = 1 once (δ − s)/(√2·σ₁) ≥ 6. The bound keeps a 1e-9
// relative margin on the 6 and a 1e-12 relative margin on δ, each orders of
// magnitude above the few-ulp rounding of the squared norm, of Hypot and of
// PadPOS's own arithmetic. A zero (or negative) σ₁ makes PadPOS a step at δ.
func saturatedNorm2(delta, sigma1 float64) float64 {
	const erfOne = 6
	s := delta*(1-1e-12) - erfOne*(1+1e-9)*math.Sqrt2*math.Max(sigma1, 0)
	if !(s > 0) {
		return 0
	}
	return s * s
}
