package yap

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (the E1–E12 / A1–A3 index in DESIGN.md). Each benchmark
// regenerates the data behind its figure; sim-backed figures run at reduced
// sample counts per iteration so that `go test -bench=.` completes in
// minutes while preserving the workload shape. Full-scale regeneration is
// the job of cmd/yapvalidate and cmd/yapcases.

import (
	"math/rand/v2"
	"testing"

	"yap/internal/core"
	"yap/internal/dist"
	"yap/internal/experiments"
	"yap/internal/layout"
	"yap/internal/sim"
	"yap/internal/units"
	"yap/internal/validate"
)

// BenchmarkTableIBaseline (E1) evaluates the analytic model at the Table I
// baseline — the paper's "0.5 s for W2W" measurement point; one iteration
// is one full W2W+D2W model evaluation.
func BenchmarkTableIBaseline(b *testing.B) {
	p := core.Baseline()
	for i := 0; i < b.N; i++ {
		if _, err := p.EvaluateW2W(); err != nil {
			b.Fatal(err)
		}
		if _, err := p.EvaluateD2W(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelEvalW2W times just the W2W analytic model (numerator of the
// E12 speedup claim).
func BenchmarkModelEvalW2W(b *testing.B) {
	p := core.Baseline()
	for i := 0; i < b.N; i++ {
		if _, err := p.EvaluateW2W(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelEvalD2W times the D2W analytic model including the
// placement-averaging quadrature.
func BenchmarkModelEvalD2W(b *testing.B) {
	p := core.Baseline()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.EvaluateD2W(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelEvalD2WLayout times the D2W analytic model on the YAP+
// region path: Table I with the die tiled 4×2 and alternate tiles at twice
// the pitch (pads sized pitch/3 and pitch/2), so the placement quadrature
// takes an eight-region product at every node.
func BenchmarkModelEvalD2WLayout(b *testing.B) {
	p := core.Baseline()
	p.PadLayout = checkerLayout(p.DieWidth, p.DieHeight, 2*p.Pitch)
	if err := p.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.EvaluateD2W(); err != nil {
			b.Fatal(err)
		}
	}
}

// checkerLayout tiles a w×h die 4×2; tiles with odd row+column use the
// coarse pitch, the others inherit the die-level pads.
func checkerLayout(w, h, coarse float64) *layout.Layout {
	edge := func(i, n int, size float64) float64 {
		if i == n {
			return size / 2
		}
		return -size/2 + float64(i)*size/float64(n)
	}
	l := &layout.Layout{}
	for row := 0; row < 2; row++ {
		for col := 0; col < 4; col++ {
			reg := layout.Region{
				X0: edge(col, 4, w), X1: edge(col+1, 4, w),
				Y0: edge(row, 2, h), Y1: edge(row+1, 2, h),
			}
			if (row+col)%2 == 1 {
				reg.Pitch, reg.TopPadDiameter, reg.BottomPadDiameter = coarse, coarse/3, coarse/2
			}
			l.Regions = append(l.Regions, reg)
		}
	}
	return l
}

// BenchmarkModelEvalSweep times both analytic modes over 64 seeded
// off-Table-I design points shaped like the benchmark's sweep-cold
// workload: pitch 3–9 µm with the §IV-B pad sizing, a square 6–12 mm die,
// D₀ 0.05–0.3 cm⁻², σ₁ 3–8 nm, and one point in 32 tiled into 8 regions.
// One iteration evaluates every point in both modes; points/s is reported.
func BenchmarkModelEvalSweep(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	points := make([]core.Params, 64)
	for i := range points {
		p := core.Baseline().WithPitch((3 + 6*r.Float64()) * units.Micrometer)
		p.DieWidth = (6 + 6*r.Float64()) * units.Millimeter
		p.DieHeight = p.DieWidth
		p.DefectDensity = (0.05 + 0.25*r.Float64()) * units.PerSquareCentimeter
		p.RandomMisalignmentSigma = (3 + 5*r.Float64()) * units.Nanometer
		if i%32 == 31 {
			p.PadLayout = checkerLayout(p.DieWidth, p.DieHeight, (1.5+0.5*float64(r.IntN(2)))*p.Pitch)
		}
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
		points[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			for _, mode := range []string{"w2w", "d2w"} {
				if _, err := p.Evaluate(mode); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(b.N*len(points))/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSimWaferW2W times one simulated bonded wafer (denominator of the
// E12 claim; the paper's simulator needs 1000 of these per yield estimate).
func BenchmarkSimWaferW2W(b *testing.B) {
	p := core.Baseline()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunW2W(sim.Options{Params: p, Seed: uint64(i), Wafers: 1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimDieD2W times a 100-die D2W simulation batch.
func BenchmarkSimDieD2W(b *testing.B) {
	p := core.Baseline()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunD2W(sim.Options{Params: p, Seed: uint64(i), Dies: 100, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchValidate runs a reduced validation study (the workload of Figs. 5,
// 8b, 9, 10) and reports the per-term MSEs as custom metrics.
func benchValidate(b *testing.B, d2w bool) {
	for i := 0; i < b.N; i++ {
		cfg := validate.Config{
			Base:   core.Baseline(),
			Sets:   8,
			Wafers: 20,
			Dies:   1500,
			Seed:   uint64(2025 + i),
		}
		var (
			study *validate.Study
			err   error
		)
		if d2w {
			study, err = experiments.ValidateD2W(cfg)
		} else {
			study, err = experiments.ValidateW2W(cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, c := range study.Correlations() {
				b.ReportMetric(c.MSE(), "MSE_"+c.Name)
			}
		}
	}
}

// BenchmarkFig5aOverlayValidation (E2) — W2W overlay model vs simulation.
// The W2W study produces all four terms at once; Figs. 5a, 5b, 8b and the
// W2W half of Fig. 10 share this workload.
func BenchmarkFig5aOverlayValidation(b *testing.B) { benchValidate(b, false) }

// BenchmarkFig5bRecessValidation (E3) — W2W Cu-recess model vs simulation.
func BenchmarkFig5bRecessValidation(b *testing.B) { benchValidate(b, false) }

// BenchmarkFig8bDefectValidation (E6) — W2W defect model vs simulation.
func BenchmarkFig8bDefectValidation(b *testing.B) { benchValidate(b, false) }

// BenchmarkFig9D2WValidation (E8) — D2W per-mechanism correlations
// (Figs. 9b–d) and the D2W half of Fig. 10.
func BenchmarkFig9D2WValidation(b *testing.B) { benchValidate(b, true) }

// BenchmarkFig10OverallValidation (E9) — both overall-yield correlations.
func BenchmarkFig10OverallValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := validate.Config{Base: core.Baseline(), Sets: 4, Wafers: 20, Dies: 1500, Seed: uint64(7 + i)}
		w, err := experiments.ValidateW2W(cfg)
		if err != nil {
			b.Fatal(err)
		}
		d, err := experiments.ValidateD2W(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(w.Total.MSE(), "MSE_W2W")
			b.ReportMetric(d.Total.MSE(), "MSE_D2W")
		}
	}
}

// BenchmarkFig6VoidMap (E4) materializes one wafer's void map.
func BenchmarkFig6VoidMap(b *testing.B) {
	p := core.Baseline()
	for i := 0; i < b.N; i++ {
		m, err := sim.GenerateVoidMap(p, uint64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		_ = m.KilledCount()
	}
}

// BenchmarkFig8aTailDistribution (E5) builds the void-tail length
// comparison and reports the worst-bin error.
func BenchmarkFig8aTailDistribution(b *testing.B) {
	p := core.Baseline()
	var d *experiments.Distribution
	for i := 0; i < b.N; i++ {
		var err error
		d, err = experiments.Fig8aTailDistribution(p, uint64(i), 100000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.MaxBinError(2000), "maxBinErr")
}

// BenchmarkFig9aMainVoidDistribution (E7) builds the D2W main-void size
// comparison.
func BenchmarkFig9aMainVoidDistribution(b *testing.B) {
	p := core.Baseline()
	var d *experiments.Distribution
	for i := 0; i < b.N; i++ {
		var err error
		d, err = experiments.Fig9aMainVoidDistribution(p, uint64(i), 100000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.MaxBinError(2000), "maxBinErr")
}

// BenchmarkFig11W2WCases (E10) evaluates the full W2W case-study grid.
func BenchmarkFig11W2WCases(b *testing.B) {
	base := core.Baseline()
	grid := experiments.DefaultCaseGrid()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCases(base, grid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12D2WCases (E11) is the same grid; the D2W breakdown and
// Y_sys come from the same RunCases pass, so the workload is shared.
func BenchmarkFig12D2WCases(b *testing.B) {
	base := core.Baseline()
	grid := experiments.DefaultCaseGrid()
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunCases(base, grid)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(results[len(results)-1].SystemYield, "Ysys_last")
		}
	}
}

// BenchmarkAblation2DMisalignment (A1) runs the simulator under the 2-D
// random-misalignment convention to price the paper's scalar approximation.
func BenchmarkAblation2DMisalignment(b *testing.B) {
	p := core.Baseline().WithPitch(1 * units.Micrometer)
	for i := 0; i < b.N; i++ {
		res, err := sim.RunD2W(sim.Options{
			Params: p, Seed: uint64(i), Dies: 2000, TwoDRandomMisalignment: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.OverlayYield, "Yovl2D")
		}
	}
}

// BenchmarkAblationMainVoidDisk (A2) runs the W2W simulator with the
// main-void disk kill enabled, pricing the tail-only line-defect
// simplification.
func BenchmarkAblationMainVoidDisk(b *testing.B) {
	p := core.Baseline()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunW2W(sim.Options{
			Params: p, Seed: uint64(i), Wafers: 20, IncludeMainVoidW2W: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.DefectYield, "YdfDisk")
		}
	}
}

// BenchmarkAblationDeltaSolver (A3) times the δ computation (bisected
// contact-area bound vs closed-form critical-distance bound) across a pitch
// sweep — the inner loop of any pitch optimization built on YAP.
func BenchmarkAblationDeltaSolver(b *testing.B) {
	base := core.Baseline()
	for i := 0; i < b.N; i++ {
		for _, um := range []float64{0.5, 1, 2, 4, 6, 8, 10} {
			g := base.WithPitch(um * units.Micrometer).PadGeometry()
			if g.MaxMisalignment() <= 0 {
				b.Fatal("non-positive delta")
			}
		}
	}
}

// BenchmarkAblationModelConventionDefects (A2 companion) runs the W2W
// simulator under the analytic model's defect idealizations, isolating the
// wafer-edge effect quantified in EXPERIMENTS.md.
func BenchmarkAblationModelConventionDefects(b *testing.B) {
	p := core.Baseline()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunW2W(sim.Options{
			Params: p, Seed: uint64(i), Wafers: 20, ModelConventionDefects: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.DefectYield, "YdfConv")
		}
	}
}

// BenchmarkExtensionAssembly evaluates the system-assembly extension
// (chiplet yield × bond yield with spares) across the KGD/spares variants.
func BenchmarkExtensionAssembly(b *testing.B) {
	cfg := yapAssemblyBase()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateAssemblyD2W(cfg); err != nil {
			b.Fatal(err)
		}
		kgd := cfg
		kgd.KnownGoodDie = true
		kgd.SpareSites = 2
		if _, err := EvaluateAssemblyD2W(kgd); err != nil {
			b.Fatal(err)
		}
		if _, err := EvaluateAssemblyW2W(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func yapAssemblyBase() AssemblyConfig {
	return AssemblyConfig{
		Bonding:    Baseline(),
		Process:    ChipletProcess{DefectDensity: 0.5 * 1e4, Clustering: 3},
		SystemArea: 1000 * units.SquareMillimeter,
	}
}

// BenchmarkExtensionTCB evaluates the thermal-compression bonding model.
func BenchmarkExtensionTCB(b *testing.B) {
	p := DefaultTCB()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateTCB(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignRuleExtraction times the MinPitch design-rule inversion —
// ~30 model evaluations per rule, the pathfinding loop of the abstract.
func BenchmarkDesignRuleExtraction(b *testing.B) {
	base := Baseline()
	for i := 0; i < b.N; i++ {
		if _, err := MinPitch(DesignW2W, base, 0.7, 0.5*units.Micrometer, 10*units.Micrometer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemYield evaluates the §IV-C system-yield curve.
func BenchmarkSystemYield(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mm2 := range []float64{10, 50, 100} {
			p := core.Baseline().WithDieArea(mm2 * units.SquareMillimeter)
			if _, _, err := p.SystemYield(experiments.SystemArea); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDistShardPlan times planning a paper-scale D2W run (20000
// samples) across a 16-worker fleet at the default two shards per worker
// — the coordinator-side cost paid once per distributed run.
func BenchmarkDistShardPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dist.Plan(20000, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistMerge times folding 32 shard Results into one — the other
// coordinator-side cost per distributed run (integer sums plus one yield
// recomputation; dispatch latency dwarfs both).
func BenchmarkDistMerge(b *testing.B) {
	parts := make([]sim.Result, 32)
	for i := range parts {
		parts[i] = sim.Result{
			Mode: "D2W",
			Counts: sim.Counts{Dies: 625, OverlayPass: 620, DefectPass: 600,
				RecessPass: 615, Survived: 590},
			Completed: 625, Requested: 625,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Merge(parts...); err != nil {
			b.Fatal(err)
		}
	}
}
