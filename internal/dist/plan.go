// Package dist shards a Monte-Carlo yield run across worker processes and
// merges their tallies into one sim.Result that is bit-identical to the
// single-node run for the same seed — horizontal scale-out without giving
// up the seeded reproducibility the paper's validation methodology (and
// this repository's whole test strategy) depends on.
//
// The determinism argument has three legs:
//
//  1. every sample of a run draws from its own stream, derived from
//     (master seed, global sample index) — randx.Derive — so WHERE a
//     sample executes cannot change WHAT it draws;
//  2. a shard is a contiguous slice [Start, Start+Count) of the global
//     index space, executed by pointing sim.Options.FirstSample at Start
//     — the worker replays exactly that slice of the single-node run;
//  3. tallies are integer counts, so sim.Merge's fold is associative and
//     order-independent, and yields are recomputed from the merged
//     integers rather than averaged from shard floats.
//
// Together these make the merged result independent of the plan, of
// worker assignment, of completion order, and of mid-run reassignment: a
// shard re-dispatched after its worker dies reproduces the identical
// tallies on any other worker. The Coordinator leans on that freely —
// retry and reassignment are always safe.
//
// Topology: a Coordinator holds a Registry of worker base URLs (plain
// yapserve daemons; /v1/shard is the worker protocol), probes them with
// heartbeats, dispatches shards through internal/client (retries, backoff
// and client-side breakers come for free) and requeues shards from dead
// or slow workers. Chaos coverage comes from the dist.dispatch and
// dist.merge faultinject hooks plus whatever plan the workers themselves
// were armed with.
package dist

import "fmt"

// Shard is one contiguous slice of a Monte-Carlo run's global sample
// index space (bonded wafers for W2W, bonded dies for D2W).
type Shard struct {
	// Index is the shard's position in the plan.
	Index int
	// Start and Count bound the global sample range [Start, Start+Count).
	Start, Count int
}

// Plan partitions total samples into at most shards contiguous,
// near-equal slices (sizes differ by at most one, larger slices first).
// The plan covers the index space [0, total) exactly and disjointly, so
// running every shard with sim.Options.FirstSample = Start and merging
// reproduces the single-node run bit-identically — a property the tests
// check for every (total, shards) shape. shards exceeding total is
// clamped (no empty shards); total or shards below one is an error.
func Plan(total, shards int) ([]Shard, error) {
	if total <= 0 {
		return nil, fmt.Errorf("dist: plan needs total > 0, got %d", total)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("dist: plan needs shards > 0, got %d", shards)
	}
	if shards > total {
		shards = total
	}
	base, rem := total/shards, total%shards
	out := make([]Shard, shards)
	start := 0
	for i := range out {
		count := base
		if i < rem {
			count++
		}
		out[i] = Shard{Index: i, Start: start, Count: count}
		start += count
	}
	return out, nil
}
