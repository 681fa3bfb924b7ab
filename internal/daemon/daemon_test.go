package daemon

import (
	"context"
	"log"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"yap/internal/client"
	"yap/internal/service"
)

// logWatch is the io.Writer behind a Run logger: it keeps every line and
// hands the first "listening on" URL to the test.
type logWatch struct {
	mu    sync.Mutex
	lines []string
	url   chan string
}

func (w *logWatch) Write(p []byte) (int, error) {
	line := string(p)
	w.mu.Lock()
	w.lines = append(w.lines, line)
	w.mu.Unlock()
	if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
		addr, _, _ := strings.Cut(rest, " ")
		select {
		case w.url <- "http://" + addr:
		default:
		}
	}
	return len(p), nil
}

func (w *logWatch) log() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.lines, "")
}

// startRun runs Run in the background and returns its bound URL, a
// cancel func and the channel Run's error arrives on.
func startRun(t *testing.T, args ...string) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	w := &logWatch{url: make(chan string, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- Run(ctx, args, log.New(w, "", 0)) }()
	select {
	case u := <-w.url:
		return u, cancel, errc
	case err := <-errc:
		cancel()
		t.Fatalf("Run returned before listening: %v\n%s", err, w.log())
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatalf("Run did not log a listen address within 10s\n%s", w.log())
	}
	return "", nil, nil
}

// stopRun cancels Run's context and requires a clean return.
func stopRun(t *testing.T, cancel context.CancelFunc, errc <-chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Run returned %v after its context ended, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return within 10s of its context ending")
	}
}

// TestRunJobSurvivesRestart drives a W2W job to done through the wiring
// yapserve runs, stops the daemon, and requires a second daemon over the
// same -jobs-dir to list the job as done with identical tallies.
func TestRunJobSurvivesRestart(t *testing.T) {
	t.Setenv("YAP_FAULTS", "")
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-jobs-dir", dir, "-sim-workers", "1", "-max-sims", "1"}
	ctx, cancelAll := context.WithTimeout(context.Background(), time.Minute)
	defer cancelAll()

	url, cancel, errc := startRun(t, args...)
	cli, err := client.New(client.Config{BaseURL: url, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cli.SubmitJob(ctx, service.JobSubmitRequest{Seed: 5, Wafers: 4, Workers: 1, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	done, err := cli.WaitJob(ctx, sub.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != "done" || done.Result == nil || done.Completed != 4 {
		t.Fatalf("job ended %q with %d/4 samples (error %q), want done with a result", done.State, done.Completed, done.Error)
	}
	stopRun(t, cancel, errc)

	url2, cancel2, errc2 := startRun(t, args...)
	defer stopRun(t, cancel2, errc2)
	cli2, err := client.New(client.Config{BaseURL: url2, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	list, err := cli2.ListJobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 {
		t.Fatalf("restarted daemon lists %d jobs, want 1", len(list.Jobs))
	}
	got := list.Jobs[0]
	if got.ID != sub.ID || got.State != "done" || got.Result == nil || got.Completed != done.Completed {
		t.Fatalf("restarted daemon lists %+v, want %s done with %d samples", got, sub.ID, done.Completed)
	}
	want, have := *done.Result, *got.Result
	want.ElapsedMs, have.ElapsedMs = 0, 0
	if want != have {
		t.Errorf("recovered result diverges:\n  before %+v\n  after  %+v", want, have)
	}
}

// TestRunRejectsBadFlagsBeforeListening covers the flag combinations the
// daemon refuses: each must return an error and never listen.
func TestRunRejectsBadFlagsBeforeListening(t *testing.T) {
	t.Setenv("YAP_FAULTS", "")
	unreadable := filepath.Join(t.TempDir(), "missing.json")
	cases := []struct {
		name string
		args []string
	}{
		{"worker and workers", []string{"-worker", "-workers", "http://127.0.0.1:1"}},
		{"peers without jobs-dir", []string{"-peers", "http://127.0.0.1:1", "-advertise", "http://127.0.0.1:2"}},
		{"peers without advertise", []string{"-peers", "http://127.0.0.1:1", "-jobs-dir", t.TempDir()}},
		{"cache-peers without advertise", []string{"-cache-peers", "http://127.0.0.1:1"}},
		{"unreadable config", []string{"-config", unreadable}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := &logWatch{url: make(chan string, 1)}
			args := append([]string{"-addr", "127.0.0.1:0"}, c.args...)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			err := Run(ctx, args, log.New(w, "", 0))
			if err == nil {
				t.Fatal("Run accepted the flags")
			}
			if strings.Contains(w.log(), "listening on") {
				t.Errorf("Run listened before refusing: %v\n%s", err, w.log())
			}
		})
	}
}
