package sim

import (
	"math"

	"yap/internal/core"
	"yap/internal/geom"
	"yap/internal/randx"
	"yap/internal/wafer"
)

// Void is one simulated particle-induced void: the main void disk around
// the particle and the tail swept radially outward by the bond wave.
type Void struct {
	// Particle is the particle position (wafer coordinates, m).
	Particle geom.Vec2
	// Thickness is the particle thickness t (m).
	Thickness float64
	// MainRadius is r_mv (Eq. 15).
	MainRadius float64
	// Tail is the void-tail segment (Eq. 16), from the particle outward.
	Tail geom.Segment
}

// VoidMap is a fully materialized single-wafer defect simulation, the data
// behind the paper's Fig. 6 visualization.
type VoidMap struct {
	// WaferRadius is the wafer radius (m).
	WaferRadius float64
	// Dies and PadRects describe the floorplan: PadRects[i] holds die i's
	// pad-region rectangles in wafer coordinates, one per region of the
	// effective pad layout (a single rectangle for the uniform die).
	Dies     []wafer.Die
	PadRects [][]geom.Rect
	// Voids are the simulated defects.
	Voids []Void
	// Killed marks dies with a pad region overlapped by a void tail or
	// main void — the kill rule both Monte-Carlo kernels apply.
	Killed []bool
}

// KilledCount returns the number of defect-killed dies.
func (m *VoidMap) KilledCount() int {
	n := 0
	for _, k := range m.Killed {
		if k {
			n++
		}
	}
	return n
}

// GenerateVoidMap simulates the particle defects of one W2W bonded wafer
// and returns the resulting void geometry and die kill map. particles > 0
// forces an exact particle count (useful for illustration); particles = 0
// draws the count from the process Poisson law.
func GenerateVoidMap(p core.Params, seed uint64, particles int) (*VoidMap, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := randx.NewSource(seed)
	dies := p.Layout().Dies()
	grids := p.RegionGrids()
	dp := p.DefectParams()
	r := p.WaferRadius()

	m := &VoidMap{
		WaferRadius: r,
		Dies:        dies,
		PadRects:    make([][]geom.Rect, len(dies)),
		Killed:      make([]bool, len(dies)),
	}
	for i, d := range dies {
		c := d.Center()
		m.PadRects[i] = make([]geom.Rect, len(grids))
		for j, g := range grids {
			m.PadRects[i][j] = g.Grid.Rect.Translate(c)
		}
	}
	if particles <= 0 {
		particles = rng.Poisson(p.DefectDensity * math.Pi * r * r)
	}
	for k := 0; k < particles; k++ {
		x, y := rng.InDiskClustered(r, p.RadialDefectClustering)
		pos := geom.Vec2{X: x, Y: y}
		t := rng.ParticleThickness(p.MinParticleThickness, p.DefectShape)
		dist := pos.Norm()
		dir := geom.Vec2{X: 1}
		if dist > 0 {
			dir = pos.Scale(1 / dist)
		}
		v := Void{
			Particle:   pos,
			Thickness:  t,
			MainRadius: dp.MainVoidRadius(dist, t),
			Tail:       geom.Segment{A: pos, B: pos.Add(dir.Scale(dp.TailLength(dist, t)))},
		}
		m.Voids = append(m.Voids, v)
		for i, rects := range m.PadRects {
			for _, rect := range rects {
				if !m.Killed[i] && (v.Tail.IntersectsRect(rect) || geom.CircleOverlapsRect(pos, v.MainRadius, rect)) {
					m.Killed[i] = true
				}
			}
		}
	}
	return m, nil
}

// SampleTailLengths draws n void-tail lengths from the simulator's
// generative process (particle position uniform over the wafer, thickness
// from Eq. 17), the empirical side of the Fig. 8a distribution comparison.
func SampleTailLengths(p core.Params, seed uint64, n int) []float64 {
	rng := randx.NewSource(seed)
	dp := p.DefectParams()
	r := p.WaferRadius()
	out := make([]float64, n)
	for i := range out {
		x, y := rng.InDisk(r)
		t := rng.ParticleThickness(p.MinParticleThickness, p.DefectShape)
		out[i] = dp.TailLength(math.Hypot(x, y), t)
	}
	return out
}

// SampleMainVoidSizes draws n D2W main-void radii from the simulator's
// generative process (particle position uniform over the effective die
// disk), the empirical side of the Fig. 9a comparison.
func SampleMainVoidSizes(p core.Params, seed uint64, n int) []float64 {
	rng := randx.NewSource(seed)
	dp := p.DefectParams()
	effR := wafer.EffectiveDieRadius(p.DieWidth, p.DieHeight)
	out := make([]float64, n)
	for i := range out {
		x, y := rng.InDisk(effR)
		t := rng.ParticleThickness(p.MinParticleThickness, p.DefectShape)
		out[i] = dp.MainVoidRadius(math.Hypot(x, y), t)
	}
	return out
}
