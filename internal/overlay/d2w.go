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
//
// Most magnification nodes need no corner scan: each corner's squared norm
// is a convex quadratic in the scaled magnification e, so the e at which
// every corner of every (T_x, T_y, α) node is saturated form an interval,
// solved once per evaluate (saturatedInterval). A node strictly inside it
// returns the all-saturated folds, built from the same −0-seeded sums in
// the same order — the value the scan returns there, where every PadPOS is
// exactly 1.
func (m Model) ExpectedDieYieldD2WRegions(dieW, dieH, refRadius float64, spread PlacementSpread, regions []PadRegion) float64 {
	if spread.Zero() {
		local := m
		local.Dist = m.Dist.ScaleToDie(refRadius, wafer.HalfDiagonal(dieW, dieH))
		return local.SumDiePOS([]wafer.Die{{}}, regions, nil)
	}
	var stack [(2*7 + 4) * 7 * 4]float64
	k := newD2WKernel(m, dieW, dieH, refRadius, spread, regions, stack[:])
	y := num.ExpectNormalAdaptive(k.node, m.Dist.Magnification, spread.MagnificationSigma)
	// Quadrature residue can push a saturated probability past its bounds
	// by ~1e-10; a yield must stay in [0, 1].
	return num.Clamp(y, 0, 1)
}

// d2wKernel is ExpectedDieYieldD2WRegions's integrand over the
// magnification: the T_x, T_y and α folds at one magnification node, over
// node tables built once per evaluate (a uniform die's tables fit the
// stack).
//
// Corner c = 4·region + k (Rect.Corners order) of rotation node l sits at
// l·nc + c in a block of blk = rot.N·nc. Block i of xs and block j of ys
// hold T_x,i − α_l·scale·Y_c and T_y,j + α_l·scale·X_c; ex and ey hold
// E·scale·X_c and E·scale·Y_c for the current magnification node; sat2
// holds each corner's region saturation bound; n2 receives the squared
// corner norms of one (T_x, T_y) pair.
type d2wKernel struct {
	sigma1                   float64
	regions                  []PadRegion
	tx, ty, rot              num.NormalRule
	nc, blk                  int
	scale                    float64
	xs, ys, ex, ey, sat2, n2 []float64
	allSaturated             float64
	// Every node at a scaled magnification in (eLo, eHi) is saturated;
	// saturatedFold is the T_x/T_y fold of allSaturated.
	eLo, eHi, saturatedFold float64
}

// newD2WKernel builds the node tables in buf, or in a new buffer when
// they do not fit it, and solves the saturated interval.
func newD2WKernel(m Model, dieW, dieH, refRadius float64, spread PlacementSpread, regions []PadRegion, buf []float64) d2wKernel {
	var k d2wKernel
	// ScaleToDie leaves rotation and magnification unscaled for a
	// degenerate die, and x·1 == x.
	k.scale = 1.0
	if halfDiag := wafer.HalfDiagonal(dieW, dieH); halfDiag > 0 {
		k.scale = refRadius / halfDiag
	}
	k.sigma1, k.regions = m.Sigma1, regions
	k.tx = num.NewNormalRule(m.Dist.TX, spread.TXSigma)
	k.ty = num.NewNormalRule(m.Dist.TY, spread.TYSigma)
	k.rot = num.NewNormalRule(m.Dist.Rotation, spread.RotationSigma)
	tx, ty, rot := &k.tx, &k.ty, &k.rot
	nc := 4 * len(regions)
	blk := rot.N * nc
	k.nc, k.blk = nc, blk
	if n := (tx.N + ty.N + 4) * blk; n > len(buf) {
		buf = make([]float64, n)
	}
	take := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	k.xs, k.ys = take(tx.N*blk), take(ty.N*blk)
	k.ex, k.ey, k.sat2, k.n2 = take(blk), take(blk), take(blk), take(blk)
	// The saturated interval is the intersection over every corner and
	// node of saturatedInterval. A corner's (xs+e·X)² + (ys+e·Y)² is convex
	// in xs and in ys, so over the T_x and T_y nodes it peaks at their
	// extremes: the four extreme pairs bound the other 45. Rounding is
	// monotone, so the extreme nodes give the extreme table entries.
	txLo, txHi, tyLo, tyHi := tx.X[0], tx.X[0], ty.X[0], ty.X[0]
	for i := 1; i < tx.N; i++ {
		txLo, txHi = min(txLo, tx.X[i]), max(txHi, tx.X[i])
	}
	for i := 1; i < ty.N; i++ {
		tyLo, tyHi = min(tyLo, ty.X[i]), max(tyHi, ty.X[i])
	}
	k.eLo, k.eHi = math.Inf(-1), math.Inf(1)
	xs, ys, sat2 := k.xs, k.ys, k.sat2
	for l := 0; l < rot.N; l++ {
		a := rot.X[l] * k.scale
		for r, reg := range regions {
			bound := saturatedNorm2(reg.Delta, m.Sigma1)
			for j, p := range reg.Rect.Corners() {
				c := l*nc + 4*r + j
				sat2[c] = bound
				ay, ax := a*p.Y, a*p.X
				for i := 0; i < tx.N; i++ {
					xs[i*blk+c] = tx.X[i] - ay
				}
				for i := 0; i < ty.N; i++ {
					ys[i*blk+c] = ty.X[i] + ax
				}
				for _, x := range [2]float64{txLo - ay, txHi - ay} {
					for _, y := range [2]float64{tyLo + ax, tyHi + ax} {
						lo, hi := saturatedInterval(x, y, p.X, p.Y, bound)
						k.eLo, k.eHi = max(k.eLo, lo), min(k.eHi, hi)
					}
				}
			}
		}
	}
	k.allSaturated = num.NegZero
	for l := 0; l < rot.N; l++ {
		k.allSaturated += rot.W[l]
	}
	k.allSaturated *= rot.Norm
	k.saturatedFold = num.NegZero
	for i := 0; i < tx.N; i++ {
		sumY := num.NegZero
		for j := 0; j < ty.N; j++ {
			sumY += ty.W[j] * k.allSaturated
		}
		k.saturatedFold += tx.W[i] * (sumY * ty.Norm)
	}
	k.saturatedFold *= tx.Norm
	return k
}

// node returns the folds at magnification mag: saturatedFold inside the
// saturated interval, the corner scan elsewhere.
func (k *d2wKernel) node(mag float64) float64 {
	e := mag * k.scale
	if e > k.eLo && e < k.eHi {
		return k.saturatedFold
	}
	return k.scan(e)
}

// scan returns the T_x and T_y folds around rotFold at scaled
// magnification e, T_x outermost, each starting from −0 so that the first
// term enters the sum unrounded (num.NegZero). A (T_x, T_y) pair whose
// corners all lie inside their saturation radii takes allSaturated.
func (k *d2wKernel) scan(e float64) float64 {
	tx, ty, nc, blk := &k.tx, &k.ty, k.nc, k.blk
	xs, ys, ex, ey, sat2, n2 := k.xs, k.ys, k.ex, k.ey, k.sat2, k.n2
	for l := 0; l < k.rot.N; l++ {
		for r, reg := range k.regions {
			for j, p := range reg.Rect.Corners() {
				c := l*nc + 4*r + j
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
			sumRot := k.allSaturated
			if !saturated {
				sumRot = k.rotFold(xb, yb)
			}
			sumY += ty.W[j] * sumRot
		}
		sumX += tx.W[i] * (sumY * ty.Norm)
	}
	return sumX * tx.Norm
}

// rotFold is the α fold for one (T_x, T_y) pair, given the pair's blocks
// and, in n2, its squared corner norms: the region product of SumDiePOS at
// each rotation node. allSaturated is its value when every POS is exactly
// 1 (W·1 == W).
func (k *d2wKernel) rotFold(xb, yb []float64) float64 {
	rot, nc, ex, ey, sat2, n2 := &k.rot, k.nc, k.ex, k.ey, k.sat2, k.n2
	sum := num.NegZero
	for l := 0; l < rot.N; l++ {
		pos := 1.0
		for r, reg := range k.regions {
			c := l*nc + 4*r
			q := (*[4]float64)(n2[c : c+4])
			if s2 := sat2[c]; q[0] < s2 && q[1] < s2 && q[2] < s2 && q[3] < s2 {
				continue // PadPOS is exactly 1 and pos·1 == pos
			}
			var dx, dy [4]float64
			for j := range dx {
				dx[j], dy[j] = xb[c+j]+ex[c+j], yb[c+j]+ey[c+j]
			}
			pos *= PadPOS(maxHypot(&dx, &dy, q, max(q[0], q[1], q[2], q[3])), reg.Delta, k.sigma1)
		}
		sum += rot.W[l] * pos
	}
	return sum * rot.Norm
}

// saturatedInterval returns the open interval (lo, hi) of the scaled
// magnification e on which the corner displacement (x + e·X, y + e·Y) has
// a squared norm, a convex quadratic a·e² + 2·b·e + c in e, below sat2
// less a guard band; lo ≥ hi when there is none. The roots take the stable
// form q/a and c/q. A corner at the die centre (X = Y = 0) is saturated
// for every e or for none; a zero bound or a NaN gives no interval.
//
// The guard band tightens the bound by 2⁻²⁰ relative and keeps |x|+|y| and
// |e|·(|X|+|Y|) within 2¹⁰ bound radii. With terms that small, rounding in
// the coefficients, in the roots (√ε-conditioned at a double root) and in
// the kernel's own squared norm stays below 2⁻²⁹ of the bound, so inside
// the interval the corner scan finds every d² < sat2; and a few ulps above
// sat2, PadPOS is still exactly 1 (saturatedNorm2's margin).
func saturatedInterval(x, y, X, Y, sat2 float64) (lo, hi float64) {
	const guard, reach = 0x1p-20, 0x1p10
	b2 := sat2 * (1 - guard)
	lim := reach * math.Sqrt(b2)
	if !(math.Abs(x)+math.Abs(y) <= lim) {
		return 0, 0
	}
	a := X*X + Y*Y
	if a == 0 {
		if x*x+y*y < b2 {
			return math.Inf(-1), math.Inf(1)
		}
		return 0, 0
	}
	b := x*X + y*Y
	c := x*x + y*y - b2
	disc := b*b - a*c
	if !(disc > 0) {
		return 0, 0
	}
	q := -(b + math.Copysign(math.Sqrt(disc), b))
	r1, r2 := q/a, c/q
	eMax := lim / (math.Abs(X) + math.Abs(Y))
	return max(min(r1, r2), -eMax), min(max(r1, r2), eMax)
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
