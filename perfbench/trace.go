package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// traceHeader carries "<request id>;<client span id>" from a traced client
// call to the daemon, so the server-side span names its request and parent.
const traceHeader = "X-Perfbench-Trace"

// span is one timed interval at a layer boundary. Start and End are wall
// clock nanoseconds (both processes run on one host, so they share the
// clock); the duration is taken from the monotonic clock.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. IDs start at base so
// the client and daemon processes never hand out the same one.
type recorder struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder(base uint64) *recorder {
	r := &recorder{}
	r.next.Store(base)
	return r
}

func (r *recorder) newID() uint64 { return r.next.Add(1) }

// record stores a finished span that began at start; id 0 allocates one.
func (r *recorder) record(id, parent uint64, req, name string, start time.Time) {
	end := time.Since(start)
	if id == 0 {
		id = r.newID()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start.UnixNano()}
	s.End = s.Start + int64(end)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// traceKey carries the active client span into the HTTP transport.
type traceKey struct{}

type traceRef struct {
	req  string
	span uint64
}

// tracingTransport stamps the trace header on requests whose context
// carries a traceRef.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(traceKey{}).(traceRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(traceHeader, ref.req+";"+strconv.FormatUint(ref.span, 10))
	}
	return t.base.RoundTrip(r)
}

func parseTraceHeader(v string) (req string, parent uint64) {
	req, id, ok := strings.Cut(v, ";")
	if !ok {
		return v, 0
	}
	parent, _ = strconv.ParseUint(id, 10, 64) // a malformed id only loses the link
	return req, parent
}

// traced runs fn as one client call: with a recorder it opens a span and
// hands its identity to the transport; without one it only times fn.
func traced(ctx context.Context, rec *recorder, req, name string, fn func(context.Context) error) (time.Duration, error) {
	if rec == nil {
		start := time.Now()
		err := fn(ctx)
		return time.Since(start), err
	}
	id := rec.newID()
	ctx = context.WithValue(ctx, traceKey{}, traceRef{req: req, span: id})
	start := time.Now()
	err := fn(ctx)
	d := time.Since(start)
	rec.record(id, 0, req, name, start)
	return d, err
}

// selfTime is the span's duration minus the part of its interval covered
// by the union of its children, clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if len(ivs) > 0 {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// quantile is one percentile of a sample set, with the sample count and
// how many samples lie beyond it.
type quantile struct {
	Q      float64 // the percentile actually reported, in (0, 1]
	Value  float64
	N      int
	Beyond int
}

// tail returns the highest percentile not above want that still has at
// least minBeyond samples beyond it (nearest-rank definition). With too
// few samples for any tail it falls back to the median. An empty set
// reports zero.
func tail(samples []float64, want float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{Q: want}
	}
	q := want
	if limit := 1 - float64(minBeyond)/float64(n); limit < q {
		q = limit
	}
	if q < 0.5 {
		q = 0.5
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return quantile{Q: q, Value: sorted[rank-1], N: n, Beyond: n - rank}
}

func median(samples []float64) float64 { return tail(samples, 0.5).Value }

func (q quantile) String() string {
	return fmt.Sprintf("p%s of n=%d, %d beyond", strconv.FormatFloat(q.Q*100, 'g', 6, 64), q.N, q.Beyond)
}

// writeSpans writes spans as JSON lines.
func writeSpans(w *json.Encoder, spans []span) error {
	for _, s := range spans {
		if err := w.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
