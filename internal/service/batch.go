package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"yap/internal/core"
	"yap/internal/fleetcache"
)

// This file is the batch-evaluate path: POST /v1/evaluate/batch, the
// per-point runner it shares with /v1/sweep (so sweeps populate and hit
// the fleet cache instead of bypassing it), and the GET/PUT /v1/cache
// endpoints that serve the fleet's peer exchange.

// resolveFunc turns one raw point override into resolved params and
// their canonical hash. Sweep resolves over the daemon defaults; batch
// resolves over the request's shared base.
type resolveFunc func(json.RawMessage) (core.Params, uint64, error)

// batchTally partitions per-point-per-mode evaluations by fleet-cache
// outcome, concurrently with the points still running.
type batchTally struct {
	cacheHits, peerHits, coalesced, computed atomic.Int64
}

func (t *batchTally) count(out fleetcache.Outcome) {
	switch out {
	case fleetcache.OutcomeLocalHit:
		t.cacheHits.Add(1)
	case fleetcache.OutcomePeerHit:
		t.peerHits.Add(1)
	case fleetcache.OutcomeCoalesced:
		t.coalesced.Add(1)
	default:
		t.computed.Add(1)
	}
}

// startPoints launches every point onto the shared pool and returns the
// results slice plus one done channel per point (closed when that
// point's slot is final). Each point evaluates independently with its
// failure folded into its Error field (partial failure, never a torn
// batch); results[i] must not be read before done[i] closes. Points use
// the unbounded-queue admission path — the batch was already admitted as
// one request and is bounded by MaxSweepPoints, so shedding individual
// points would tear it.
func (s *Server) startPoints(ctx context.Context, resolve resolveFunc, points []json.RawMessage, wantW2W, wantD2W bool, tally *batchTally) ([]SweepPoint, []chan struct{}) {
	results := make([]SweepPoint, len(points))
	done := make([]chan struct{}, len(points))
	for i := range done {
		done[i] = make(chan struct{})
	}
	for i, raw := range points {
		go func(i int, raw json.RawMessage) {
			defer close(done[i])
			// The instrument middleware's recover sits on the request
			// goroutine; a panic here (e.g. an injected cache fault) must
			// be folded into the point's error instead.
			defer func() {
				if rec := recover(); rec != nil {
					s.metrics.panicsRecovered.Add(1)
					results[i].Error = fmt.Sprintf("internal: %v", rec)
				}
			}()
			results[i] = SweepPoint{Index: i}
			err := s.pool.RunQueued(ctx, func() {
				results[i] = s.evaluatePoint(ctx, i, raw, resolve, wantW2W, wantD2W, tally)
			})
			if err != nil {
				results[i].Error = err.Error()
			}
		}(i, raw)
	}
	return results, done
}

// evaluatePoint resolves and evaluates one point through the fleet
// cache, folding any failure into the point's Error field.
func (s *Server) evaluatePoint(ctx context.Context, i int, raw json.RawMessage, resolve resolveFunc, wantW2W, wantD2W bool, tally *batchTally) SweepPoint {
	pt := SweepPoint{Index: i}
	p, hash, err := resolve(raw)
	if err != nil {
		pt.Error = err.Error()
		return pt
	}
	pt.ParamsHash = core.FormatHash(hash)
	pt.Cached = true
	if wantW2W {
		b, out, err := s.cache.Evaluate(ctx, "w2w", hash, p)
		if err != nil {
			pt.Error = err.Error()
			return pt
		}
		tally.count(out)
		pt.W2W = breakdownFrom(b)
		pt.Cached = pt.Cached && out.Cached()
	}
	if wantD2W {
		b, out, err := s.cache.Evaluate(ctx, "d2w", hash, p)
		if err != nil {
			pt.Error = err.Error()
			return pt
		}
		tally.count(out)
		pt.D2W = breakdownFrom(b)
		pt.Cached = pt.Cached && out.Cached()
	}
	return pt
}

// handleEvaluateBatch is POST /v1/evaluate/batch: shared base + N point
// overrides, evaluated through the fleet cache on the bounded pool, with
// the response streamed back per point in index order. Once the first
// point is written the 200 is committed: later failures (an expired
// deadline mid-batch, an invalid point) surface as per-point errors, not
// as an HTTP error — the same partial-failure contract as /v1/sweep.
func (s *Server) handleEvaluateBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchEvaluateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	wantW2W, wantD2W, err := evalModes(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_mode", err.Error())
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "invalid_params", "batch needs at least one point")
		return
	}
	if len(req.Points) > s.cfg.MaxSweepPoints {
		writeError(w, http.StatusBadRequest, "too_many_points",
			fmt.Sprintf("%d points exceed the %d-point limit", len(req.Points), s.cfg.MaxSweepPoints))
		return
	}
	base, _, err := s.resolveParams(req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_params", err.Error())
		return
	}
	resolve := func(raw json.RawMessage) (core.Params, uint64, error) {
		p := base
		if len(raw) > 0 && !bytes.Equal(bytes.TrimSpace(raw), []byte("null")) {
			var err error
			p, err = core.DecodeParams(base, bytes.NewReader(raw))
			if err != nil {
				return core.Params{}, 0, err
			}
		}
		return p, p.CanonicalHash(), nil
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	tally := &batchTally{}
	results, done := s.startPoints(ctx, resolve, req.Points, wantW2W, wantD2W, tally)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	io.WriteString(w, `{"points":[`) //nolint:errcheck // client gone; nothing to do
	failed := 0
	for i := range results {
		<-done[i]
		if results[i].Error != "" {
			failed++
		}
		if i > 0 {
			io.WriteString(w, ",") //nolint:errcheck
		}
		buf, err := json.Marshal(results[i])
		if err != nil {
			buf = []byte(`{"error":"internal: point encoding failed"}`)
		}
		w.Write(buf) //nolint:errcheck
		if flusher != nil {
			flusher.Flush()
		}
	}
	fmt.Fprintf(w, `],"failed":%d,"cache_hits":%d,"peer_hits":%d,"coalesced":%d,"computed":%d}`+"\n",
		failed, tally.cacheHits.Load(), tally.peerHits.Load(), tally.coalesced.Load(), tally.computed.Load())
}

// cacheKeyFromPath parses the {mode}/{hash} segments of a /v1/cache
// path; on failure the 400 has been written.
func cacheKeyFromPath(w http.ResponseWriter, r *http.Request) (string, uint64, bool) {
	mode := r.PathValue("mode")
	if mode != "w2w" && mode != "d2w" {
		writeError(w, http.StatusBadRequest, "invalid_mode",
			fmt.Sprintf("unknown mode %q (want w2w or d2w)", mode))
		return "", 0, false
	}
	hash, err := strconv.ParseUint(r.PathValue("hash"), 16, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_params",
			"hash must be the canonical params hash as 64-bit hex")
		return "", 0, false
	}
	return mode, hash, true
}

// handleCacheGet is GET /v1/cache/{mode}/{hash}: this member's local
// store only — never a computation, never an onward peer fetch, so
// lookup storms cannot cascade across the fleet. A miss is 404
// "cache_miss" (a healthy answer the fetcher's breaker ignores).
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	mode, hash, ok := cacheKeyFromPath(w, r)
	if !ok {
		return
	}
	e, found := s.cache.Lookup(mode, hash)
	if !found {
		writeError(w, http.StatusNotFound, "cache_miss", "no entry for this key on this member")
		return
	}
	writeJSON(w, http.StatusOK, CacheEntryResponse{
		Mode:       mode,
		ParamsHash: fmt.Sprintf("%016x", hash),
		Params:     e.Params,
		Breakdown:  *breakdownFrom(e.Breakdown),
	})
}

// handleCachePut is PUT /v1/cache/{mode}/{hash}: accept an owner-warming
// offer from the fleet member that computed this key. The params are
// decoded and re-hashed here — an offer whose content does not hash to
// its key is rejected, so a corrupt push can waste a request but never
// poison the store.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	mode, hash, ok := cacheKeyFromPath(w, r)
	if !ok {
		return
	}
	var req CachePutRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if len(req.Params) == 0 {
		writeError(w, http.StatusBadRequest, "invalid_params", "params required")
		return
	}
	p, err := core.DecodeParams(*s.cfg.Defaults, bytes.NewReader(req.Params))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_params", err.Error())
		return
	}
	if p.CanonicalHash() != hash {
		writeError(w, http.StatusBadRequest, "hash_mismatch",
			fmt.Sprintf("offered params hash to %s, not the key in the path", p.HashString()))
		return
	}
	s.cache.Adopt(mode, hash, p, core.Breakdown{
		Overlay: req.Breakdown.Overlay,
		Recess:  req.Breakdown.Recess,
		Defect:  req.Breakdown.Defect,
		Total:   req.Breakdown.Total,
	})
	w.WriteHeader(http.StatusNoContent)
}
