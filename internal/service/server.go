package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Service is the simulation service: canonical hashing in front of a
// content-addressed cache in front of a sharded scheduler. Create with
// New, serve Handler, stop with Shutdown.
type Service struct {
	cfg   Config
	cache *resultCache
	// diskStore is the persistent result tier under the memory LRU; nil
	// when the service runs memory-only (Config.Store unset).
	diskStore store.Store
	sched     *scheduler
	mux       *http.ServeMux
	start     time.Time
	// progressInflight counts the progress-streamed requests being served.
	progressInflight atomic.Int64

	// logger receives one structured record per request (the span
	// timeline) plus service lifecycle events; defaults to discarding.
	logger *slog.Logger
	// metrics is the HTTP instrument set; metrics.reg is the registry
	// GET /metrics exposes (cache, scheduler, and sim families register
	// into the same one).
	metrics *serviceMetrics
	// sweepDeduped counts, across all sweeps, indices that replayed
	// another index's bytes via batch-wide fingerprint dedupe.
	sweepDeduped atomic.Uint64
	// biasedRuns counts simulations this service actually executed (not
	// cache replays) under importance-sampled failure biasing.
	biasedRuns atomic.Uint64
}

// New returns a started service (its scheduler workers are running).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:       cfg,
		cache:     newResultCache(cfg.CacheSize),
		diskStore: cfg.Store,
		sched:     newScheduler(cfg.Shards, cfg.QueueDepth, cfg.JobTimeout),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		logger:    cfg.Logger,
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s.metrics = newServiceMetrics(reg)
	s.cache.instrument(reg)
	if in, ok := s.diskStore.(interface {
		Instrument(*telemetry.Registry)
	}); ok {
		in.Instrument(reg)
	}
	s.sched.instrument(reg)
	sim.EnableMetrics(reg)
	reg.GaugeFunc("ltsimd_progress_inflight",
		"Progress-streamed estimate requests currently being served.", func() float64 {
			return float64(s.progressInflight.Load())
		})
	reg.GaugeFunc("ltsimd_uptime_seconds", "Seconds since the service started.", func() float64 {
		return time.Since(s.start).Seconds()
	})

	s.mux.HandleFunc("POST /estimate", s.handleEstimate)
	s.mux.Handle("POST /sweep", &Sweep{
		Resolve: s.sweepPoint,
		// Below total queue capacity, so a large sweep waits its turn
		// instead of tripping 503s.
		Width:   max(1, cfg.Shards*cfg.QueueDepth/2),
		Deduped: s.countDeduped,
	})
	s.mux.HandleFunc("POST /scenarios/expand", s.handleScenarioExpand)
	s.mux.HandleFunc("GET /experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /experiments/run", s.handleExperimentRun)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.Handle("GET /metrics", reg.Handler())
	return s
}

// Handler returns the HTTP surface, wrapped in the telemetry middleware
// (request IDs, per-route latency histograms, structured request logs).
func (s *Service) Handler() http.Handler { return s.withTelemetry(s.mux) }

// MetricsRegistry returns the registry behind GET /metrics.
func (s *Service) MetricsRegistry() *telemetry.Registry { return s.metrics.reg }

// Shutdown drains the scheduler (see scheduler.Shutdown for semantics),
// then closes the persistent store so its directory can be reopened by
// the next process — draining first means every completed job's bytes
// reach disk before the store stops accepting writes.
func (s *Service) Shutdown(ctx context.Context) error {
	err := s.sched.Shutdown(ctx)
	if s.diskStore != nil {
		if cerr := s.diskStore.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Cache tiers, as they appear in the X-Ltsimd-Cache header and sweep
// summaries: "hit" is the in-memory LRU, "disk" the persistent store.
const (
	tierMemory = "hit"
	tierDisk   = "disk"
)

// cacheGet probes the memory tier then the persistent store. A store
// hit promotes the bytes back into memory (read-through), so the next
// probe of a hot key is a memory hit; tier reports which tier answered.
func (s *Service) cacheGet(key string) (body []byte, tier string, ok bool) {
	if body, ok := s.cache.Get(key); ok {
		return body, tierMemory, true
	}
	if s.diskStore == nil {
		return nil, "", false
	}
	body, ok = s.diskStore.Get(key)
	if !ok {
		return nil, "", false
	}
	s.cache.Put(key, body)
	return body, tierDisk, true
}

// cachePut writes through both tiers.
func (s *Service) cachePut(key string, val []byte) {
	s.cache.Put(key, val)
	if s.diskStore != nil {
		s.diskStore.Put(key, val)
	}
}

// answer is the one path from key to bytes: the memory tier, then the
// persistent store, then the shard scheduler, where the request joins a
// run of key already in flight or starts compute. disp is the
// X-Ltsimd-Cache disposition: the tier that answered ("hit" or "disk"),
// "dedup" for a joined run, or "miss" for a fresh one.
func (s *Service) answer(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (body []byte, disp string, err error) {
	if body, tier, hit := s.cacheGet(key); hit {
		return body, tier, nil
	}
	telemetry.TraceFrom(ctx).Mark("queued")
	body, joined, err := s.sched.submit(ctx, key, compute)
	if joined {
		return body, "dedup", err
	}
	return body, "miss", err
}

// writeAnswer writes one JSON answer with its key and cache disposition.
func writeAnswer(w http.ResponseWriter, key, disp string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Ltsimd-Key", key)
	h.Set("X-Ltsimd-Cache", disp)
	w.Write(body)
	w.Write([]byte("\n"))
}

// writeError emits a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds every request body either front end decodes. It
// fits an explicit scenario.MaxPoints-point sweep of the largest test
// fixture request (TestBodyLimitFitsLargestSweep).
const maxBodyBytes = 64 << 20

// DecodeBody decodes r's body into v, reading at most maxBodyBytes and
// rejecting unknown fields. On failure it has written the JSON error
// (413 for an oversized body, 400 otherwise) and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit))
	case err != nil:
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
	}
	return err == nil
}

// submitStatus maps a scheduler error onto an HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, sim.ErrInvalidConfig):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// applyPolicy folds the daemon-level request policy into a request
// before it is built and fingerprinted, so the effective (and cached)
// configuration is the policy-adjusted one: DefaultTargetRel turns
// budget-less requests adaptive, MaxTrialsCap clamps every trial budget.
func (s *Service) applyPolicy(req EstimateRequest) EstimateRequest {
	if s.cfg.DefaultTargetRel > 0 && req.Trials == 0 && req.TargetRelWidth == 0 {
		req.TargetRelWidth = s.cfg.DefaultTargetRel
	}
	// The bias default only reaches requests it could be valid for:
	// biasing needs a censoring horizon.
	if s.cfg.DefaultBias != 0 && req.Bias == 0 && req.HorizonYears > 0 {
		req.Bias = s.cfg.DefaultBias
	}
	if cap := s.cfg.MaxTrialsCap; cap > 0 {
		if req.TargetRelWidth > 0 {
			if req.MaxTrials == 0 || req.MaxTrials > cap {
				req.MaxTrials = cap
			}
			if req.Trials > cap {
				req.Trials = cap
			}
		} else {
			if req.Trials == 0 {
				req.Trials = scenario.DefaultTrials // make the wire default explicit before clamping
			}
			if req.Trials > cap {
				req.Trials = cap
			}
		}
	}
	return req
}

// resolved applies policy, builds, and fingerprints one request,
// returning the policy-effective request alongside so callers that
// display it (the /scenarios/expand dry run) derive it from the same
// pass that produced the key.
func (s *Service) resolved(req EstimateRequest) (string, EstimateRequest, sim.Config, sim.Options, error) {
	req = s.applyPolicy(req)
	cfg, opt, err := req.Build()
	if err != nil {
		return "", req, sim.Config{}, sim.Options{}, err
	}
	opt.Parallel = s.cfg.SimParallel
	key, err := sim.Fingerprint(cfg, opt)
	if err != nil {
		return "", req, sim.Config{}, sim.Options{}, err
	}
	return key, req, cfg, opt, nil
}

// resolve fingerprints one request and returns the compute closure that
// produces (and caches) its encoded result. observe, when non-nil, gets
// the run's progress snapshots on the simulation's goroutine.
func (s *Service) resolve(req EstimateRequest, observe func(sim.Progress)) (key string, compute func(context.Context) ([]byte, error), err error) {
	key, _, cfg, opt, err := s.resolved(req)
	if err != nil {
		return "", nil, err
	}
	compute = func(ctx context.Context) ([]byte, error) {
		runner, err := sim.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		if opt.Bias != 0 {
			s.biasedRuns.Add(1)
		}
		est, err := runner.EstimateStream(ctx, opt, observe)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(report.NewEstimateJSON(est, opt.Horizon))
		if err != nil {
			return nil, err
		}
		// ctx carries the owning request's trace through the scheduler.
		telemetry.TraceFrom(ctx).Mark("encoded")
		s.cachePut(key, body)
		return body, nil
	}
	return key, compute, nil
}

// handleEstimate serves one estimate: cache hit replays the stored
// bytes; miss schedules the simulation and waits for it.
func (s *Service) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if req.Progress {
		s.streamEstimate(w, r, req)
		return
	}
	key, compute, err := s.resolve(req, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	telemetry.TraceFrom(r.Context()).Mark("resolved")
	body, disp, err := s.answer(r.Context(), key, compute)
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}
	writeAnswer(w, key, disp, body)
}

// ProgressJSON is a sim.Progress snapshot on the wire. RelWidth is
// omitted while the stopping criterion is not yet estimable (JSON cannot
// carry +Inf).
type ProgressJSON struct {
	Trials   int                  `json:"trials"`
	Budget   int                  `json:"budget"`
	Batches  int                  `json:"batches"`
	Losses   int                  `json:"losses"`
	Censored int                  `json:"censored"`
	MTTDL    *report.IntervalJSON `json:"mttdl_hours,omitempty"`
	LossProb *report.IntervalJSON `json:"loss_prob,omitempty"`
	RelWidth *float64             `json:"rel_width,omitempty"`
	Target   float64              `json:"target_rel_width,omitempty"`
	// EffectiveSamples is the weighted estimator's effective loss count
	// so far; omitted in unbiased runs (additive field).
	EffectiveSamples *float64 `json:"effective_samples,omitempty"`
}

// newProgressJSON converts a snapshot.
func newProgressJSON(p sim.Progress) *ProgressJSON {
	out := &ProgressJSON{
		Trials:   p.Trials,
		Budget:   p.Budget,
		Batches:  p.Batches,
		Losses:   p.Losses,
		Censored: p.Censored,
		Target:   p.TargetRelWidth,
	}
	if !math.IsInf(p.RelWidth, 1) {
		rw := p.RelWidth
		out.RelWidth = &rw
	}
	if p.MTTDL.Level != 0 {
		iv := report.NewIntervalJSON(p.MTTDL)
		out.MTTDL = &iv
	}
	if p.LossProb.Level != 0 {
		iv := report.NewIntervalJSON(p.LossProb)
		out.LossProb = &iv
	}
	if p.EffectiveSamples > 0 {
		ess := p.EffectiveSamples
		out.EffectiveSamples = &ess
	}
	return out
}

// EstimateFrame is one NDJSON line of a progress-streamed estimate:
// either a progress snapshot, the final frame carrying the canonical
// result bytes (identical to the plain /estimate body, and to what the
// cache replays), or an error.
type EstimateFrame struct {
	Progress *ProgressJSON   `json:"progress,omitempty"`
	Final    bool            `json:"final,omitempty"`
	Key      string          `json:"key,omitempty"`
	Cache    string          `json:"cache,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// streamEstimate serves one estimate as an NDJSON stream: throttled
// progress frames at batch boundaries, then a final frame with the
// canonical result body. It takes the plain request's path (cache, then
// scheduler) with a progress observer on the job, which offers snapshots
// through a one-slot channel without ever blocking the shard worker (a
// snapshot that finds the slot full is dropped). Only the request that
// starts a run streams progress; a cache hit or a request that joins a
// run in flight gets the final frame alone.
func (s *Service) streamEstimate(w http.ResponseWriter, r *http.Request, req EstimateRequest) {
	s.progressInflight.Add(1)
	defer s.progressInflight.Add(-1)
	snapshots := make(chan sim.Progress, 1)
	var lastOffer time.Time
	key, compute, err := s.resolve(req, func(p sim.Progress) {
		// The final frame carries the result. Always offer the first
		// boundary, then throttle so a million-trial run does not flood
		// the connection.
		if p.Final || (!lastOffer.IsZero() && time.Since(lastOffer) < 100*time.Millisecond) {
			return
		}
		lastOffer = time.Now()
		select {
		case snapshots <- p:
		default:
		}
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	telemetry.TraceFrom(r.Context()).Mark("resolved")

	type outcome struct {
		body []byte
		disp string
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		body, disp, err := s.answer(r.Context(), key, compute)
		done <- outcome{body, disp, err}
	}()

	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	// The headers reach the wire with the first frame; later Sets are
	// no-ops. A snapshot means this request started the run, so its
	// frames go out as a "miss".
	emit := func(disp string, f EstimateFrame) {
		h := w.Header()
		h.Set("Content-Type", "application/x-ndjson")
		h.Set("X-Ltsimd-Key", key)
		h.Set("X-Ltsimd-Cache", disp)
		enc.Encode(f)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for {
		select {
		case p := <-snapshots:
			emit("miss", EstimateFrame{Progress: newProgressJSON(p), Key: key})
		case out := <-done:
			// The run is over, so nothing sends after this: flush the
			// snapshot it may have left, so the first boundary always
			// precedes the final frame.
			if len(snapshots) > 0 {
				emit("miss", EstimateFrame{Progress: newProgressJSON(<-snapshots), Key: key})
			}
			switch {
			case r.Context().Err() != nil:
				// The client is gone; a run it started finishes without it.
			case errors.Is(out.err, ErrQueueFull), errors.Is(out.err, ErrShuttingDown):
				writeError(w, submitStatus(out.err), out.err)
			case out.err != nil:
				emit(out.disp, EstimateFrame{Error: out.err.Error(), Key: key})
			default:
				emit(out.disp, EstimateFrame{Final: true, Key: key, Cache: out.disp, Result: out.body})
			}
			return
		}
	}
}

// ExpandLine is one NDJSON line of a /scenarios/expand dry run: an
// expanded point (its deterministic index, the coordinates that
// produced it, the policy-effective request, and the fingerprint a
// sweep of this document would cache under), or a per-point build
// error, with a trailing summary line.
type ExpandLine struct {
	Index   int              `json:"index"`
	Key     string           `json:"key,omitempty"`
	Coords  []scenario.Coord `json:"coords,omitempty"`
	Request *EstimateRequest `json:"request,omitempty"`
	Error   string           `json:"error,omitempty"`
	Summary bool             `json:"summary,omitempty"`
	Name    string           `json:"name,omitempty"`
	Points  int              `json:"points,omitempty"`
	OK      int              `json:"ok,omitempty"`
	Errors  int              `json:"errors,omitempty"`
}

// handleScenarioExpand is the dry run behind scenario-driven sweeps: it
// expands a document server-side and streams every point with its
// fingerprint, without scheduling any simulation. The reported request
// is the policy-effective one (after the daemon's -target-rel /
// -max-trials adjustments), so the keys are exactly what /sweep would
// hit; a daemon with no request policy reports the expansion verbatim,
// fingerprint-identical to client-side scenario.Expand.
func (s *Service) handleScenarioExpand(w http.ResponseWriter, r *http.Request) {
	var doc scenario.Document
	if !DecodeBody(w, r, &doc) {
		return
	}
	points, err := scenario.Expand(doc)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Fingerprinting is the same CPU-bound work the sweep parallelizes;
	// resolve across cores, then emit in index order.
	lines := make([]ExpandLine, len(points))
	parallelFor(len(points), func(i int) {
		line := ExpandLine{Index: points[i].Index, Coords: points[i].Coords}
		if key, eff, _, _, err := s.resolved(points[i].Request); err != nil {
			line.Error = err.Error()
		} else {
			line.Key = key
			line.Request = &eff
		}
		lines[i] = line
	})

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	summary := ExpandLine{Summary: true, Name: doc.Name, Points: len(points)}
	for _, line := range lines {
		if line.Error != "" {
			summary.Errors++
		} else {
			summary.OK++
		}
		enc.Encode(line)
	}
	enc.Encode(summary)
}

// handleExperiments lists the registered experiment index.
func (s *Service) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		ID     string `json:"id"`
		Title  string `json:"title"`
		Source string `json:"source"`
	}
	out := make([]entry, 0)
	for _, e := range experiments.All() {
		out = append(out, entry{ID: e.ID, Title: e.Title, Source: e.Source})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// experimentResult is an experiment run on the wire: tables as
// structured grids, plots pre-rendered as the same ASCII the CLI draws.
type experimentResult struct {
	ID     string          `json:"id"`
	Title  string          `json:"title"`
	Source string          `json:"source"`
	Tables []*report.Table `json:"tables"`
	Plots  []string        `json:"plots"`
	Notes  []string        `json:"notes"`
}

// handleExperimentRun runs one registered experiment by id
// (?id=E2&quick=1&seed=1) through the same scheduler and cache as
// estimates — experiments are deterministic in (id, seed, quick), so
// they content-address just as well.
func (s *Service) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	e, ok := experiments.ByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q", id))
		return
	}
	quick := false
	if q := r.URL.Query().Get("quick"); q != "" {
		v, err := strconv.ParseBool(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("quick: %w", err))
			return
		}
		quick = v
	}
	var seed uint64 = 1
	if q := r.URL.Query().Get("seed"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("seed: %w", err))
			return
		}
		seed = v
	}
	key := fmt.Sprintf("exp/v1|%s|seed=%d|quick=%t", e.ID, seed, quick)
	body, disp, err := s.answer(r.Context(), key, func(ctx context.Context) ([]byte, error) {
		res, err := runExperiment(ctx, e, experiments.RunConfig{Seed: seed, Quick: quick})
		if err != nil {
			return nil, err
		}
		out := experimentResult{
			ID: e.ID, Title: e.Title, Source: e.Source,
			Tables: res.Tables, Plots: make([]string, 0, len(res.Plots)),
			Notes: res.Notes,
		}
		if out.Tables == nil {
			out.Tables = []*report.Table{}
		}
		if out.Notes == nil {
			out.Notes = []string{}
		}
		for _, p := range res.Plots {
			var sb strings.Builder
			if err := p.Render(&sb); err != nil {
				return nil, err
			}
			out.Plots = append(out.Plots, sb.String())
		}
		b, err := json.Marshal(out)
		if err != nil {
			return nil, err
		}
		s.cachePut(key, b)
		return b, nil
	})
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}
	writeAnswer(w, key, disp, body)
}

// runExperiment runs e under ctx's deadline. Experiment Run functions
// predate context support, so cancellation is cooperative only at the
// job boundary: on timeout or shutdown the job publishes ctx's error
// promptly (keeping the drain budget honest) while the orphaned Run
// finishes on its own goroutine and is discarded — experiments are
// finite, so the goroutine terminates, it just stops counting.
func runExperiment(ctx context.Context, e experiments.Experiment, cfg experiments.RunConfig) (*experiments.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type outcome struct {
		res *experiments.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.Run(cfg)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		return out.res, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// handleHealthz is the liveness probe.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// StatsSnapshot is the /stats payload. ProgressInflight and
// SweepDeduped are additive (PR 7); the earlier fields keep their names
// and positions, so pre-existing consumers decode unchanged.
type StatsSnapshot struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Cache         CacheStats     `json:"cache"`
	Scheduler     SchedulerStats `json:"scheduler"`
	// ProgressInflight counts the progress-streamed estimate requests
	// being served.
	ProgressInflight int `json:"progress_inflight"`
	// SweepDeduped is the cumulative count of sweep indices that
	// replayed another index's bytes via batch-wide fingerprint dedupe.
	SweepDeduped uint64 `json:"sweep_deduped"`
	// BiasedRuns is the cumulative count of simulations executed (not
	// cache replays) under importance-sampled failure biasing. Additive
	// (PR 8); pre-existing consumers decode unchanged.
	BiasedRuns uint64 `json:"biased_runs"`
	// Store is the persistent result tier's snapshot; omitted entirely on
	// memory-only daemons. Additive (PR 9); its Hits vs the memory
	// cache's Hits is the per-node tier attribution the ltsimr router
	// aggregates as cluster cache warmth.
	Store *store.Stats `json:"store,omitempty"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Cache:            s.cache.Stats(),
		Scheduler:        s.sched.Stats(),
		ProgressInflight: int(s.progressInflight.Load()),
		SweepDeduped:     s.sweepDeduped.Load(),
		BiasedRuns:       s.biasedRuns.Load(),
	}
	if s.diskStore != nil {
		st := s.diskStore.Stats()
		snap.Store = &st
	}
	return snap
}

// handleStats reports cache and scheduler health.
func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}
