package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"yap/internal/core"
	"yap/internal/layout"
	"yap/internal/units"
)

// sizes sets how much work each workload's operations carry. The smoke
// test shrinks them; the benchmark runs fullSizes.
type sizes struct {
	hotPoints   int // eval-hot working set (distinct points)
	batchPoints int // sweep-cold points per batch
	simWafers   int // montecarlo W2W simulate wafers
	simDies     int // montecarlo D2W simulate dies
	jobWafers   int // montecarlo W2W job cap
	jobDies     int // montecarlo D2W job cap
	setups      int // most daemon set-ups per end-to-end run (setup_s is their median)
}

// setupBudget stops further set-ups once three have been made and their
// total reaches it.
const setupBudget = 3 * time.Second

var fullSizes = sizes{
	hotPoints: 256, batchPoints: 64,
	simWafers: 1000, simDies: 20000,
	jobWafers: 1000, jobDies: 20000,
	setups: 7,
}

// Early-stop targets for montecarlo jobs. On the Table I process the
// Wilson half-width reaches them near 700 samples, between the daemon's
// default 200-sample checkpoints, so nearly every job stops at its fourth
// checkpoint; where it stops depends only on its seed.
const (
	jobEpsilonW2W = 1.09e-3
	jobEpsilonD2W = 2.35e-2
)

// Input streams: each kind of input draws from its own PCG stream of the
// workload seed, so adding draws to one never shifts another.
const (
	streamHot uint64 = iota + 1
	streamSweep
	streamSweepWarm
	streamSim
	streamJob
	streamSample
	streamClient
)

func rng(seed, stream, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed^(stream<<56), index))
}

// override is the partial parameter set a generated point sends: the
// sweep axes of the paper's case studies plus an optional pad layout.
type override struct {
	Pitch                   float64        `json:"Pitch"`
	TopPadDiameter          float64        `json:"TopPadDiameter"`
	BottomPadDiameter       float64        `json:"BottomPadDiameter"`
	DieWidth                float64        `json:"DieWidth"`
	DieHeight               float64        `json:"DieHeight"`
	DefectDensity           float64        `json:"DefectDensity"`
	RandomMisalignmentSigma float64        `json:"RandomMisalignmentSigma"`
	PadLayout               *layout.Layout `json:"layout,omitempty"`
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

// designPoint draws pitch (with the §IV-B pad-sizing rule), die side,
// defect density and random misalignment; withLayout adds an 8-region
// pad layout.
func designPoint(r *rand.Rand, withLayout bool) override {
	pitch := uniform(r, 3, 9) * units.Micrometer
	side := uniform(r, 6, 12) * units.Millimeter
	o := override{
		Pitch:                   pitch,
		TopPadDiameter:          pitch / 3,
		BottomPadDiameter:       pitch / 2,
		DieWidth:                side,
		DieHeight:               side,
		DefectDensity:           uniform(r, 0.05, 0.3) * units.PerSquareCentimeter,
		RandomMisalignmentSigma: uniform(r, 3, 8) * units.Nanometer,
	}
	if withLayout {
		o.PadLayout = eightRegions(side, side, pitch, 1.5+0.5*float64(r.IntN(2)))
	}
	return o
}

// processPoint keeps the Table I die and pitch and varies the process:
// the montecarlo inputs, whose cost should track the paper's defaults.
func processPoint(r *rand.Rand, withLayout bool) override {
	base := core.Baseline()
	o := override{
		Pitch:                   base.Pitch,
		TopPadDiameter:          base.TopPadDiameter,
		BottomPadDiameter:       base.BottomPadDiameter,
		DieWidth:                base.DieWidth,
		DieHeight:               base.DieHeight,
		DefectDensity:           uniform(r, 0.08, 0.12) * units.PerSquareCentimeter,
		RandomMisalignmentSigma: uniform(r, 4, 6) * units.Nanometer,
	}
	if withLayout {
		o.PadLayout = eightRegions(o.DieWidth, o.DieHeight, o.Pitch, 2)
	}
	return o
}

// eightRegions tiles the die 4×2; alternate tiles use a pitch coarser by
// factor, with the same pad-sizing rule.
func eightRegions(w, h, pitch, factor float64) *layout.Layout {
	coarse := pitch * factor
	edge := func(i, n int, size float64) float64 {
		if i == n {
			return size / 2
		}
		return -size/2 + float64(i)*size/float64(n)
	}
	regions := make([]layout.Region, 0, 8)
	for row := 0; row < 2; row++ {
		for col := 0; col < 4; col++ {
			reg := layout.Region{
				Name: fmt.Sprintf("r%dc%d", row, col),
				X0:   edge(col, 4, w), X1: edge(col+1, 4, w),
				Y0: edge(row, 2, h), Y1: edge(row+1, 2, h),
			}
			if (row+col)%2 == 1 {
				reg.Pitch, reg.TopPadDiameter, reg.BottomPadDiameter = coarse, coarse/3, coarse/2
			}
			regions = append(regions, reg)
		}
	}
	return &layout.Layout{Regions: regions}
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding generated input: %v", err)) // generated values always encode
	}
	return b
}

// resolve merges a partial parameter set over Table I exactly as the
// daemon does, and returns it with its canonical hash string.
func resolve(raw json.RawMessage) (core.Params, string, error) {
	p, err := core.DecodeParams(core.Baseline(), bytes.NewReader(raw))
	if err != nil {
		return core.Params{}, "", err
	}
	return p, p.HashString(), nil
}

// hotWorkingSet is eval-hot's distinct points; one in four carries an
// 8-region layout.
func hotWorkingSet(seed uint64, n int) []json.RawMessage {
	seen := make(map[string]bool, n)
	out := make([]json.RawMessage, 0, n)
	for i := uint64(0); len(out) < n; i++ {
		raw := mustJSON(designPoint(rng(seed, streamHot, i), len(out)%4 == 3))
		if key := string(raw); !seen[key] {
			seen[key] = true
			out = append(out, raw)
		}
	}
	return out
}

// sweepLayoutEvery spaces sweep-cold's 8-region points: one in 32, so
// every 64-point batch carries exactly two.
const sweepLayoutEvery = 32

// sweepPoint is sweep-cold's k-th point. Points are a pure function of
// (seed, k), so every point of a run is distinct whichever client sends
// it.
func sweepPoint(seed uint64, stream uint64, k int) json.RawMessage {
	return mustJSON(designPoint(rng(seed, stream, uint64(k)), k%sweepLayoutEvery == sweepLayoutEvery-1))
}

// sampledForCheck picks the seeded 1-in-16 sample of sweep points whose
// breakdowns are recomputed and compared bit for bit.
func sampledForCheck(seed uint64, k int) bool {
	return rng(seed, streamSample, uint64(k)).IntN(16) == 0
}

// simCycle is how many distinct simulate requests montecarlo cycles
// through.
const simCycle = 8

// simInput is one simulate request or job submission.
type simInput struct {
	mode   string
	seed   uint64
	params json.RawMessage
}

// simInputs is montecarlo's cycle of distinct simulate requests: modes
// alternate, and one request in four (one of each mode) carries an
// 8-region layout.
func simInputs(seed uint64) []simInput {
	out := make([]simInput, simCycle)
	for i := range out {
		r := rng(seed, streamSim, uint64(i))
		mode := "w2w"
		if i%2 == 1 {
			mode = "d2w"
		}
		out[i] = simInput{mode: mode, seed: r.Uint64(), params: mustJSON(processPoint(r, i >= simCycle-2))}
	}
	return out
}

// jobCycle is how many distinct durable jobs montecarlo cycles through;
// repeats must reproduce the first run bit for bit.
const jobCycle = 12

// jobInputs is montecarlo's cycle of distinct durable jobs on the Table I
// process, each with its own seed and epsilon armed. Two in three are
// W2W: D2W jobs finish several times faster, so with this mix the job
// p50 and p90 both fall inside the W2W jobs' spread instead of in the
// gap between the two modes.
func jobInputs(seed uint64) []simInput {
	out := make([]simInput, jobCycle)
	for i := range out {
		mode := "w2w"
		if i%3 == 2 {
			mode = "d2w"
		}
		out[i] = simInput{mode: mode, seed: rng(seed, streamJob, uint64(i)).Uint64(), params: json.RawMessage(`{}`)}
	}
	return out
}
