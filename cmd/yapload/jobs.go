package main

// The durable-jobs drill (-jobs): a true crash-recovery exercise over
// real processes. It starts a yapserve with -jobs-dir (a `yapload serve`
// child running internal/daemon.Run), submits one Monte-Carlo job paced by
// an injected jobs.run delay, SIGKILLs the daemon after the job has
// durably checkpointed but long before it finishes, restarts a fresh
// daemon over the same store, and asserts the subsystem's headline
// invariants:
//
//   - the restarted daemon resumes the job from its last durable
//     checkpoint (resumes == 1, visible both on the job and as
//     yapserve_jobs_resumed_total on /metrics);
//   - the resumed job's final result is bit-identical to an
//     uninterrupted single-process run of the same spec — the crash is
//     invisible in the tallies;
//   - the kill provably interrupted real work: the job had completed
//     some but not all samples when the SIGKILL landed.
//
// Exits 1 when any invariant is violated.

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/service"
	"yap/internal/sim"
)

var (
	jobsMode   = flag.Bool("jobs", false, "run the durable-jobs crash-recovery drill instead of the load mix")
	jobsWafers = flag.Int("jobs-wafers", 120, "wafers for the -jobs drill job")
)

// jobsCheckpointEvery paces the drill job: with the injected 25ms delay
// per slice, a 120-wafer job runs for >= 1.5s — a wide window to land
// the SIGKILL after the first durable checkpoint.
const jobsCheckpointEvery = 2

// jobsDaemonArgs are the yapserve flags of a drill daemon listening on
// addr with a durable job store in dir. The stream and HA drills extend
// them.
func jobsDaemonArgs(addr, dir string, extra ...string) []string {
	return append([]string{"-addr", addr, "-jobs-dir", dir, "-sim-workers", "2",
		"-max-sims", "2", "-timeout", "30s", "-breaker-threshold", "-1"}, extra...)
}

// runJobsDrill is the parent side; returns the process exit code.
func runJobsDrill(logger *log.Logger, seed uint64) int {
	d := &drill{logger: logger}
	wafers := *jobsWafers
	if wafers < 3*jobsCheckpointEvery {
		logger.Fatalf("-jobs-wafers must be at least %d so a kill can land between checkpoints", 3*jobsCheckpointEvery)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The uninterrupted single-process reference every invariant is
	// measured against.
	base, err := sim.RunW2WContext(ctx, sim.Options{Params: core.Baseline(), Seed: seed, Wafers: wafers, Workers: 2})
	if err != nil {
		logger.Fatalf("jobs: baseline: %v", err)
	}

	dir, err := os.MkdirTemp("", "yapload-jobs-*")
	if err != nil {
		logger.Fatalf("jobs: store dir: %v", err)
	}
	defer os.RemoveAll(dir) //nolint:errcheck

	// Daemon #1: every job slice is delayed 25ms through the jobs.run
	// fault hook, pacing the job so the kill cannot race completion.
	pace := fmt.Sprintf("%s=seed=1,%s=1:delay:25ms", faultinject.EnvVar, faultinject.HookJobsRun)
	daemon, err := startSubprocess([]string{pace}, jobsDaemonArgs("127.0.0.1:0", dir)...)
	if err != nil {
		logger.Fatalf("jobs: starting daemon: %v", err)
	}
	defer daemon.kill()
	logger.Printf("jobs: daemon pid %d up at %s (paced)", daemon.cmd.Process.Pid, daemon.url)

	cli, err := client.New(client.Config{BaseURL: daemon.url, MaxAttempts: 3})
	if err != nil {
		logger.Fatalf("jobs: client: %v", err)
	}
	sub, err := cli.SubmitJob(ctx, service.JobSubmitRequest{
		Seed: seed, Wafers: wafers, Workers: 2, CheckpointEvery: jobsCheckpointEvery,
	})
	if err != nil {
		logger.Fatalf("jobs: submit: %v", err)
	}
	logger.Printf("jobs: submitted %s (%d wafers, checkpoint every %d)", sub.ID, wafers, jobsCheckpointEvery)

	// Wait for the first durable checkpoint, then SIGKILL mid-job.
	var atKill *service.JobResponse
	for atKill == nil {
		job, err := cli.GetJob(ctx, sub.ID)
		if err != nil {
			logger.Fatalf("jobs: polling before kill: %v", err)
		}
		switch {
		case job.State == "running" && job.Completed >= jobsCheckpointEvery:
			atKill = job
		case job.State == "pending" || job.State == "running":
			time.Sleep(5 * time.Millisecond)
		default:
			d.violation("job reached %q before the kill could land; the drill exercised nothing", job.State)
			return d.exit("all durable-job invariants held")
		}
	}
	logger.Printf("jobs: SIGKILLing daemon pid %d with %d/%d samples checkpointed",
		daemon.cmd.Process.Pid, atKill.Completed, wafers)
	daemon.kill()
	if atKill.Completed >= wafers {
		d.violation("kill landed after all %d samples completed; widen -jobs-wafers", wafers)
	}

	// Daemon #2 over the same store, unpaced: recovery replays the WAL
	// and resumes the job from its last durable checkpoint.
	daemon2, err := startSubprocess([]string{faultinject.EnvVar + "="}, jobsDaemonArgs("127.0.0.1:0", dir)...)
	if err != nil {
		logger.Fatalf("jobs: restarting daemon: %v", err)
	}
	defer daemon2.kill()
	logger.Printf("jobs: restarted daemon pid %d at %s", daemon2.cmd.Process.Pid, daemon2.url)

	cli2, err := client.New(client.Config{BaseURL: daemon2.url, MaxAttempts: 3})
	if err != nil {
		logger.Fatalf("jobs: client: %v", err)
	}
	done, err := cli2.WaitJob(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		logger.Fatalf("jobs: waiting for resumed job: %v", err)
	}
	switch {
	case done.State != "done":
		d.violation("resumed job finished as %q (error %q), want done", done.State, done.Error)
	case done.Result == nil:
		d.violation("resumed job has no result")
	default:
		if done.Resumes != 1 {
			d.violation("resumed job reports %d resumes, want 1", done.Resumes)
		}
		r := done.Result
		if r.Yield != base.Yield || r.YieldLo != base.YieldLo || r.YieldHi != base.YieldHi ||
			r.Survived != base.Counts.Survived || r.Dies != base.Counts.Dies ||
			r.OverlayYield != base.OverlayYield || r.DefectYield != base.DefectYield ||
			r.RecessYield != base.RecessYield {
			d.violation("resumed result diverges from uninterrupted run:\n  resumed %+v\n  single  %+v", r, base)
		} else {
			logger.Printf("jobs: resumed result bit-identical to uninterrupted run: %d/%d dies, yield %.6f",
				r.Survived, r.Dies, r.Yield)
		}
	}
	if v := scrapeCounter(ctx, d, daemon2.url, "yapserve_jobs_resumed_total"); v < 1 {
		d.violation("restart not visible in /metrics: yapserve_jobs_resumed_total %v, want >= 1", v)
	}

	fmt.Printf("yapload: jobs drill: killed at %d/%d samples, resumed and finished\n", atKill.Completed, wafers)
	return d.exit("all durable-job invariants held")
}
