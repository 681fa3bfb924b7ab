package num

import "math"

// ghNodes7 and ghWeights7 are the 7-point Gauss–Hermite nodes and weights
// for ∫ e^(−x²) f(x) dx (physicists' convention, positive half; the rule is
// symmetric and includes the origin).
var ghNodes7 = [4]float64{
	0,
	0.8162878828589647,
	1.6735516287674714,
	2.6519613568352334,
}

var ghWeights7 = [4]float64{
	0.8102646175568073,
	0.4256072526101278,
	0.0545155828191270,
	0.0009717812450995,
}

// invSqrtPi is 1/√π, the normalization of the Gauss–Hermite measure.
const invSqrtPi = 0.5641895835477563

// ExpectNormal1 returns E[g(X)] for X ~ N(mu, sigma²) using the 7-point
// Gauss–Hermite rule, exact for polynomial g up to degree 13. A zero sigma
// collapses to g(mu).
func ExpectNormal1(g func(float64) float64, mu, sigma float64) float64 {
	if sigma == 0 {
		return g(mu)
	}
	scale := math.Sqrt2 * sigma
	sum := ghWeights7[0] * g(mu)
	for i := 1; i < 4; i++ {
		d := scale * ghNodes7[i]
		sum += ghWeights7[i] * (g(mu+d) + g(mu-d))
	}
	return sum * invSqrtPi
}

// NormalRule is the 7-point Gauss–Hermite rule for E[g(X)], X ~ N(mu,
// sigma²), laid out as a node table: E[g(X)] ≈ Norm·Σ W[j]·g(X[j]) over
// j < N. The nodes run mu, mu+d₁, mu−d₁, mu+d₂, mu−d₂, mu+d₃, mu−d₃, which
// is the order ExpectNormal folds them in. A zero sigma collapses the rule
// to the single node mu with unit weight and norm, so the fold returns
// g(mu) bit for bit (1·x == x).
type NormalRule struct {
	X, W [7]float64
	N    int
	Norm float64
}

// NewNormalRule returns the rule for N(mu, sigma²).
func NewNormalRule(mu, sigma float64) NormalRule {
	if sigma == 0 {
		return NormalRule{X: [7]float64{mu}, W: [7]float64{1}, N: 1, Norm: 1}
	}
	r := NormalRule{N: 7, Norm: invSqrtPi}
	r.X[0], r.W[0] = mu, ghWeights7[0]
	scale := math.Sqrt2 * sigma
	for i := 1; i < 4; i++ {
		d := scale * ghNodes7[i]
		r.X[2*i-1], r.W[2*i-1] = mu+d, ghWeights7[i]
		r.X[2*i], r.W[2*i] = mu-d, ghWeights7[i]
	}
	return r
}

// NegZero is −0, the starting value of a quadrature fold: −0 + x == x for
// every x, a +0 or −0 first term included, so a sum that starts from it
// equals one that starts from its first term bit for bit.
var NegZero = math.Copysign(0, -1)

// ExpectNormal returns E[g(X₁,…,X_k)] for independent X_i ~ N(mu[i],
// sigma[i]²) via a tensor-product 7-point Gauss–Hermite rule (NormalRule
// per dimension, the first dimension outermost). Dimensions with
// sigma[i] = 0 contribute a single node, so degenerate (deterministic)
// parameters cost nothing.
func ExpectNormal(g func(x []float64) float64, mu, sigma []float64) float64 {
	if len(mu) != len(sigma) {
		// Unreachable from the model: every caller builds mu and sigma
		// side by side with identical lengths; a mismatch is a programming
		// error in new code, best caught loudly.
		panic("num: ExpectNormal mu/sigma length mismatch") //yaplint:allow no-naked-panic caller-constructed slices, lengths fixed at the call site
	}
	rules := make([]NormalRule, len(mu))
	for i := range mu {
		rules[i] = NewNormalRule(mu[i], sigma[i])
	}
	return expectNormalRec(g, rules, make([]float64, len(mu)), 0)
}

// ExpectNormalAdaptive returns E[g(X)] for X ~ N(mu, sigma²) by adaptive
// Simpson integration of g against the normal density over ±7σ. Unlike the
// fixed Gauss–Hermite rule it resolves near-discontinuous g (yield
// indicators smoothed over a few nanometers of misalignment), at the cost
// of more evaluations; use it for the one or two dimensions whose spread
// dwarfs the indicator's transition width.
func ExpectNormalAdaptive(g func(float64) float64, mu, sigma float64) float64 {
	if sigma == 0 {
		return g(mu)
	}
	f := func(x float64) float64 {
		z := (x - mu) / sigma
		return g(x) * math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
	}
	const span = 7.0
	// g is bounded by O(1) in yield use; 1e-6 absolute keeps the quadrature
	// error three orders below the Monte-Carlo noise it is compared to,
	// without over-refining (each g evaluation may itself be a quadrature).
	return Integrate(f, mu-span*sigma, mu+span*sigma, 1e-6)
}

func expectNormalRec(g func(x []float64) float64, rules []NormalRule, x []float64, dim int) float64 {
	if dim == len(rules) {
		return g(x)
	}
	r := &rules[dim]
	sum := NegZero
	for j := 0; j < r.N; j++ {
		x[dim] = r.X[j]
		sum += r.W[j] * expectNormalRec(g, rules, x, dim+1)
	}
	return sum * r.Norm
}
