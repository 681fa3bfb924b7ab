package main

// The high-availability drill (-ha): a true coordinator-failover
// exercise over real processes. It starts a three-member replicated job
// control plane: yapserve daemons with -jobs-dir, -advertise and -peers,
// each a `yapload serve` child running internal/daemon.Run, so the
// members also share a fleet cache as a deployed cluster does. It submits one paced Monte-Carlo job through the leader-following
// client, SIGKILLs the LEADER after the job has durably checkpointed but
// long before it finishes, and asserts the subsystem's headline
// invariants:
//
//   - a surviving follower promotes itself within the election lease and
//     resumes the job from its last replicated checkpoint;
//   - the failed-over job's final result is bit-identical to an
//     uninterrupted single-process run of the same spec — the leader's
//     death is invisible in the tallies;
//   - the kill provably interrupted real work (the job had completed
//     some but not all samples on the old leader);
//   - after a second member dies the cluster has no quorum, and a submit
//     is REFUSED — a job is never reported accepted without a majority
//     durably holding it.
//
// The drill runs with replication faults armed (replica.ship attempt
// drops) so shipment retries are exercised, not just the happy path.
// Exits 1 when any invariant is violated.

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/replica"
	"yap/internal/resilience"
	"yap/internal/service"
	"yap/internal/sim"
)

var (
	haMode   = flag.Bool("ha", false, "run the replicated control-plane failover drill instead of the load mix")
	haWafers = flag.Int("ha-wafers", 120, "wafers for the -ha drill job")
)

// haLease keeps failover fast: a dead leader is succeeded within about
// half a second, well inside the paced job's multi-second runtime.
const haLease = "400ms"

// reserveAddrs grabs n kernel-assigned loopback ports and releases them
// again: the replica members must know each other's URLs before any of
// them starts listening. The tiny release-to-rebind window is fine for a
// drill on loopback.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close() //nolint:errcheck
	}
	return addrs, nil
}

// haRole probes one member's role via /metrics; -1 means unreachable.
func haRole(ctx context.Context, base string) int {
	role, err := scrapeMetric(ctx, base, "yapserve_replica_role")
	if err != nil {
		return -1
	}
	return int(role)
}

// haWaitLeader polls the live members until exactly one reports itself
// leader, returning its index; -1 on timeout.
func haWaitLeader(ctx context.Context, urls []string, dead map[int]bool, patience time.Duration) int {
	deadline := time.Now().Add(patience)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		leader := -1
		leaders := 0
		for i, u := range urls {
			if dead[i] {
				continue
			}
			if haRole(ctx, u) == int(replica.RoleLeader) {
				leader = i
				leaders++
			}
		}
		if leaders == 1 {
			return leader
		}
		time.Sleep(20 * time.Millisecond)
	}
	return -1
}

// runHADrill is the parent side; returns the process exit code.
func runHADrill(logger *log.Logger, seed uint64) int {
	d := &drill{logger: logger}
	wafers := *haWafers
	if wafers < 3*jobsCheckpointEvery {
		logger.Fatalf("-ha-wafers must be at least %d so the kill can land between checkpoints", 3*jobsCheckpointEvery)
	}
	const members = 3

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// The uninterrupted single-process reference the failover is measured
	// against.
	base, err := sim.RunW2WContext(ctx, sim.Options{Params: core.Baseline(), Seed: seed, Wafers: wafers, Workers: 2})
	if err != nil {
		logger.Fatalf("ha: baseline: %v", err)
	}

	addrs, err := reserveAddrs(members)
	if err != nil {
		logger.Fatalf("ha: reserving ports: %v", err)
	}
	urls := make([]string, members)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}

	// Every member paces job slices 25ms (so the kill cannot race
	// completion, whichever member leads) and drops 5% of replication
	// shipment attempts (so sender retry is exercised under load).
	pace := fmt.Sprintf("%s=seed=1,%s=1:delay:25ms,%s=0.05:error",
		faultinject.EnvVar, faultinject.HookJobsRun, faultinject.HookReplicaShip)
	procs := make([]*workerProc, members)
	dead := make(map[int]bool)
	for i := range procs {
		peers := make([]string, 0, members-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		dir, err := os.MkdirTemp("", "yapload-ha-*")
		if err != nil {
			logger.Fatalf("ha: store dir: %v", err)
		}
		defer os.RemoveAll(dir) //nolint:errcheck
		procs[i], err = startSubprocess([]string{pace}, jobsDaemonArgs(addrs[i], dir,
			"-advertise", urls[i], "-peers", strings.Join(peers, ","), "-election-lease", haLease)...)
		if err != nil {
			logger.Fatalf("ha: starting member %d: %v", i, err)
		}
		defer procs[i].kill()
		logger.Printf("ha: member %d pid %d up at %s", i, procs[i].cmd.Process.Pid, urls[i])
	}

	leader := haWaitLeader(ctx, urls, dead, 10*time.Second)
	if leader < 0 {
		d.violation("no single leader emerged from the fresh cluster")
		return d.exit("all high-availability invariants held")
	}
	logger.Printf("ha: member %d leads", leader)

	// Submit through a FOLLOWER: the client must follow the 409 redirect.
	cli, err := client.New(client.Config{BaseURL: urls[(leader+1)%members], MaxAttempts: 8,
		Backoff: resilience.Backoff{Base: 5 * time.Millisecond, Max: 300 * time.Millisecond, Seed: seed}})
	if err != nil {
		logger.Fatalf("ha: client: %v", err)
	}
	sub, err := cli.SubmitJob(ctx, service.JobSubmitRequest{
		Seed: seed, Wafers: wafers, Workers: 2, CheckpointEvery: jobsCheckpointEvery,
	})
	if err != nil {
		logger.Fatalf("ha: submit: %v", err)
	}
	logger.Printf("ha: submitted %s via follower redirect (%d wafers, checkpoint every %d)",
		sub.ID, wafers, jobsCheckpointEvery)

	// Wait for the first durable checkpoint, then SIGKILL the leader.
	var atKill *service.JobResponse
	for atKill == nil {
		job, err := cli.GetJob(ctx, sub.ID)
		if err != nil {
			logger.Fatalf("ha: polling before kill: %v", err)
		}
		switch {
		case job.State == "running" && job.Completed >= jobsCheckpointEvery:
			atKill = job
		case job.State == "pending" || job.State == "running":
			time.Sleep(5 * time.Millisecond)
		default:
			d.violation("job reached %q before the kill could land; the drill exercised nothing", job.State)
			return d.exit("all high-availability invariants held")
		}
	}
	logger.Printf("ha: SIGKILLing leader %d (pid %d) with %d/%d samples checkpointed",
		leader, procs[leader].cmd.Process.Pid, atKill.Completed, wafers)
	procs[leader].kill()
	dead[leader] = true
	if atKill.Completed >= wafers {
		d.violation("kill landed after all %d samples completed; widen -ha-wafers", wafers)
	}

	successor := haWaitLeader(ctx, urls, dead, 15*time.Second)
	if successor < 0 {
		d.violation("no successor elected after the leader died")
		return d.exit("all high-availability invariants held")
	}
	logger.Printf("ha: member %d took over", successor)

	// The leader-following client rides out the failover: its learned
	// leader is dead, so it falls back and follows the new redirect.
	done, err := cli.WaitJob(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		logger.Fatalf("ha: waiting for failed-over job: %v", err)
	}
	switch {
	case done.State != "done":
		d.violation("failed-over job finished as %q (error %q), want done", done.State, done.Error)
	case done.Result == nil:
		d.violation("failed-over job has no result")
	default:
		if done.Resumes < 1 {
			d.violation("failed-over job reports %d resumes, want >= 1", done.Resumes)
		}
		r := done.Result
		if r.Yield != base.Yield || r.YieldLo != base.YieldLo || r.YieldHi != base.YieldHi ||
			r.Survived != base.Counts.Survived || r.Dies != base.Counts.Dies ||
			r.OverlayYield != base.OverlayYield || r.DefectYield != base.DefectYield ||
			r.RecessYield != base.RecessYield {
			d.violation("failed-over result diverges from uninterrupted run:\n  failover %+v\n  single   %+v", r, base)
		} else {
			logger.Printf("ha: failed-over result bit-identical to uninterrupted run: %d/%d dies, yield %.6f",
				r.Survived, r.Dies, r.Yield)
		}
	}

	// Kill a second member: one of three survivors is not a majority, so
	// a submit must be refused — never falsely accepted.
	second := (successor + 1) % members
	if dead[second] {
		second = (successor + 2) % members
	}
	logger.Printf("ha: SIGKILLing member %d — the cluster loses quorum", second)
	procs[second].kill()
	dead[second] = true
	qctx, qcancel := context.WithTimeout(ctx, 20*time.Second)
	refused, err := client.New(client.Config{BaseURL: urls[successor], MaxAttempts: 2,
		Backoff: resilience.Backoff{Base: 5 * time.Millisecond, Max: 300 * time.Millisecond, Seed: seed + 1}})
	if err != nil {
		logger.Fatalf("ha: client: %v", err)
	}
	resp, err := refused.SubmitJob(qctx, service.JobSubmitRequest{Seed: seed + 7, Wafers: 4})
	qcancel()
	if err == nil {
		d.violation("submit without quorum reported accepted: %+v", resp)
	} else {
		logger.Printf("ha: quorumless submit correctly refused: %v", err)
	}

	fmt.Printf("yapload: ha drill: killed leader at %d/%d samples, follower finished the job\n",
		atKill.Completed, wafers)
	return d.exit("all high-availability invariants held")
}
