package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// SweepRequest fans a batch of estimate requests across the worker
// pool: either an explicit request list, or a scenario document the
// server expands through exactly the path a client would (so both
// spellings yield byte-identical result lines and share cache entries).
type SweepRequest struct {
	Requests []EstimateRequest  `json:"requests,omitempty"`
	Scenario *scenario.Document `json:"scenario,omitempty"`
}

// SweepLine is one NDJSON line of a sweep response: a per-request result
// (in completion order, Index mapping it back to the request) or error.
// The final line is the summary (Summary true, Result empty).
type SweepLine struct {
	Index     int             `json:"index"`
	Key       string          `json:"key,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Summary   bool            `json:"summary,omitempty"`
	Requested int             `json:"requested,omitempty"`
	OK        int             `json:"ok,omitempty"`
	Errors    int             `json:"errors,omitempty"`
	CacheHits int             `json:"cache_hits,omitempty"`
	// Deduped counts the indices that shared another index's fingerprint
	// within this batch and replayed its bytes instead of scheduling (or
	// cache-probing) their own run.
	Deduped int `json:"deduped,omitempty"`
	// DiskHits counts the subset of CacheHits answered by the persistent
	// store rather than the memory LRU (additive; memory-only daemons
	// never emit it). Node is the worker a routed sweep point was served
	// by — set only by the ltsimr router, never by a single daemon.
	DiskHits  int    `json:"disk_hits,omitempty"`
	Node      string `json:"node,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
}

// SweepAnswer answers one unique sweep key. It returns the result body,
// the key its lines carry, the cache tier that answered ("hit" for
// memory, "disk" for the persistent store, anything else for a fresh
// run), and the node that served it ("" on a single daemon). On error
// only the key is read.
type SweepAnswer func(ctx context.Context) (body []byte, key, tier, node string, err error)

// Sweep is the one /sweep implementation, shared by ltsimd (a backend
// over the local cache and scheduler) and ltsimr (a backend over the
// worker ring). It decodes the batch (a request list or a scenario,
// bounded by scenario.MaxPoints), resolves every point across cores,
// groups the points by key so each unique key is answered once however
// often it recurs, answers up to Width keys at a time, and streams one
// NDJSON line per index in completion order — a sweep's wall clock is
// its slowest key, not the sum — then a summary line with totals, cache
// hits and the number of indices the dedupe absorbed.
type Sweep struct {
	// Resolve fingerprints one request into the key the batch dedupes on
	// and returns the function that answers it. An error fails that
	// index alone; its line is written ahead of any answer.
	Resolve func(EstimateRequest) (key string, answer SweepAnswer, err error)
	// Width bounds how many unique keys are answered at once.
	Width int
	// Deduped, when set, is told how many indices the batch's dedupe
	// absorbed, before any key is answered.
	Deduped func(n int)
}

// ServeHTTP serves one sweep.
func (sw *Sweep) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if req.Scenario != nil {
		if len(req.Requests) > 0 {
			writeError(w, http.StatusBadRequest, errors.New("sweep takes requests or a scenario, not both"))
			return
		}
		points, err := scenario.Expand(*req.Scenario)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		req.Requests = make([]EstimateRequest, len(points))
		for i, pt := range points {
			req.Requests[i] = pt.Request
		}
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("sweep needs at least one request"))
		return
	}
	// Explicit request lists honor the same bound scenario expansion
	// enforces, so neither spelling can queue unbounded work.
	if len(req.Requests) > scenario.MaxPoints {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweep of %d requests exceeds the %d limit", len(req.Requests), scenario.MaxPoints))
		return
	}
	start := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(line SweepLine) {
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	summary := SweepLine{Summary: true, Requested: len(req.Requests)}

	// Resolving is pure CPU (build + canonicalize + hash), so it fans
	// across cores; grouping is serial, so each unique key is answered
	// exactly once.
	type resolution struct {
		key    string
		answer SweepAnswer
		err    error
	}
	resolutions := make([]resolution, len(req.Requests))
	parallelFor(len(req.Requests), func(i int) {
		res := &resolutions[i]
		res.key, res.answer, res.err = sw.Resolve(req.Requests[i])
	})

	type group struct {
		answer  SweepAnswer
		indices []int
	}
	groups := make(map[string]*group)
	var order []*group
	for i, res := range resolutions {
		if res.err != nil {
			summary.Errors++
			emit(SweepLine{Index: i, Error: res.err.Error()})
			continue
		}
		g, ok := groups[res.key]
		if !ok {
			g = &group{answer: res.answer}
			groups[res.key] = g
			order = append(order, g)
		} else {
			summary.Deduped++
		}
		g.indices = append(g.indices, i)
	}
	if summary.Deduped > 0 && sw.Deduped != nil {
		sw.Deduped(summary.Deduped)
	}

	type outcome struct {
		g               *group
		body            []byte
		key, tier, node string
		err             error
	}
	results := make(chan outcome)
	// A fixed pool of answerers: a large batch applies backpressure to
	// itself, and a 65k-point sweep costs Width goroutines, not one per
	// key.
	var next atomic.Int64
	for range min(len(order), max(1, sw.Width)) {
		go func() {
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(order) {
					return
				}
				out := outcome{g: order[gi]}
				out.body, out.key, out.tier, out.node, out.err = out.g.answer(r.Context())
				results <- out
			}
		}()
	}

	for range order {
		out := <-results
		for _, i := range out.g.indices {
			if out.err != nil {
				summary.Errors++
				emit(SweepLine{Index: i, Key: out.key, Error: out.err.Error()})
				continue
			}
			summary.OK++
			switch out.tier {
			case tierMemory:
				summary.CacheHits++
			case tierDisk:
				summary.CacheHits++
				summary.DiskHits++
			}
			emit(SweepLine{Index: i, Key: out.key, Result: out.body, Node: out.node})
		}
	}
	summary.ElapsedMS = time.Since(start).Milliseconds()
	enc.Encode(summary)
}

// parallelFor calls fn for every index in [0, n) across GOMAXPROCS
// goroutines and returns once all calls have: the fan-out behind sweep
// and expand fingerprinting.
func parallelFor(n int, fn func(i int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sweepPoint is the daemon's sweep backend: a point takes the path of a
// plain estimate (cache, then scheduler). Its lines carry the
// fingerprint.
func (s *Service) sweepPoint(req EstimateRequest) (string, SweepAnswer, error) {
	key, compute, err := s.resolve(req, nil)
	if err != nil {
		return "", nil, err
	}
	return key, func(ctx context.Context) ([]byte, string, string, string, error) {
		// Wait out a full shard queue: key hashing can skew a sweep onto
		// one shard, and a point should wait its turn rather than fail
		// its line with a transient 503.
		backoff := 5 * time.Millisecond
		for {
			body, disp, err := s.answer(ctx, key, compute)
			if !errors.Is(err, ErrQueueFull) {
				return body, key, disp, "", err
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, key, "", "", ctx.Err()
			}
			if backoff < 200*time.Millisecond {
				backoff *= 2
			}
		}
	}, nil
}

// countDeduped adds one sweep's dedupe count to the /stats and /metrics
// counters.
func (s *Service) countDeduped(n int) {
	s.sweepDeduped.Add(uint64(n))
	s.metrics.sweepDeduped.Add(uint64(n))
}
