package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config sizes a Router.
type Config struct {
	// Workers are the ltsimd base URLs the ring hashes over. Names
	// default to the URL stripped of its scheme.
	Workers []Worker
	// VNodes is the virtual-node count per worker; 0 means 64.
	VNodes int
	// LoadFactor is the bounded-load ceiling multiplier; 0 means 1.25.
	LoadFactor float64
	// ProbeInterval paces the health prober; 0 means 2s. ProbeTimeout
	// bounds one probe; 0 means 1s.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Client performs upstream requests; nil uses a default with no
	// overall timeout (an estimate or its progress stream lasts as long
	// as the simulation takes; per-probe timeouts are separate).
	Client *http.Client
	// Logger receives lifecycle events (ejections, re-admissions); nil
	// discards. Metrics is the registry GET /metrics exposes; nil
	// creates a fresh one.
	Logger  *slog.Logger
	Metrics *telemetry.Registry
}

// Worker names one ltsimd instance.
type Worker struct {
	Name string
	URL  string
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.LoadFactor <= 0 {
		c.LoadFactor = 1.25
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// upstream is one worker response, buffered for replay to coalesced
// waiters.
type upstream struct {
	node   string
	status int
	cache  string // the worker's X-Ltsimd-Cache disposition
	key    string // the worker's X-Ltsimd-Key (its cache key, policy folded in)
	body   []byte
}

// Router is the stateless cluster front. Create with New, serve
// Handler, stop with Close.
type Router struct {
	cfg    Config
	ring   *Ring
	mux    *http.ServeMux
	client *http.Client
	logger *slog.Logger
	start  time.Time

	// flights is the router half of cluster-wide single-flight; the
	// workers' shard schedulers are the other half, for duplicates that
	// slip past the router (e.g. clients hitting workers directly).
	flights flight.Group[*upstream]

	probeStop   context.CancelFunc
	probeDone   chan struct{}
	coalesced   atomic.Uint64
	retries     atomic.Uint64
	ejections   atomic.Uint64
	readmits    atomic.Uint64
	routedTotal atomic.Uint64

	metrics *routerMetrics
}

type routerMetrics struct {
	reg       *telemetry.Registry
	requests  *telemetry.CounterVec // node
	coalesced *telemetry.Counter
	retries   *telemetry.Counter
	ejections *telemetry.Counter
	readmits  *telemetry.Counter
}

// New builds a started router (its health prober is running).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	nodes := make([]*Node, 0, len(cfg.Workers))
	for _, w := range cfg.Workers {
		url := strings.TrimSuffix(w.URL, "/")
		if url == "" {
			return nil, errors.New("router: worker URL must not be empty")
		}
		name := w.Name
		if name == "" {
			name = strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
		}
		nodes = append(nodes, &Node{Name: name, URL: url})
	}
	ring, err := NewRing(nodes, cfg.VNodes, cfg.LoadFactor)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r := &Router{
		cfg:       cfg,
		ring:      ring,
		mux:       http.NewServeMux(),
		client:    cfg.Client,
		logger:    cfg.Logger,
		start:     time.Now(),
		probeDone: make(chan struct{}),
	}
	r.metrics = &routerMetrics{
		reg: reg,
		requests: reg.CounterVec("ltsimr_requests_total",
			"Upstream requests dispatched, by worker.", "node"),
		coalesced: reg.Counter("ltsimr_coalesced_total",
			"Requests that joined an in-flight duplicate at the router instead of dispatching."),
		retries: reg.Counter("ltsimr_retries_total",
			"Dispatches retried on a successor node after a worker failed mid-request."),
		ejections: reg.Counter("ltsimr_ejections_total",
			"Workers ejected from the ring (probe failure or request-time death)."),
		readmits: reg.Counter("ltsimr_readmissions_total",
			"Ejected workers re-admitted by a succeeding health probe."),
	}
	reg.GaugeFunc("ltsimr_nodes_healthy", "Workers currently admitted to the ring.", func() float64 {
		return float64(r.ring.HealthyCount())
	})
	reg.GaugeFunc("ltsimr_nodes_total", "Workers configured in the ring.", func() float64 {
		return float64(len(r.ring.Nodes()))
	})
	reg.GaugeFunc("ltsimr_uptime_seconds", "Seconds since the router started.", func() float64 {
		return time.Since(r.start).Seconds()
	})
	inflight := reg.GaugeVec("ltsimr_node_inflight", "In-flight upstream requests per worker.", "node")
	for _, n := range ring.Nodes() {
		node := n
		inflight.Func(func() float64 { return float64(node.Inflight()) }, node.Name)
	}

	r.mux.HandleFunc("POST /estimate", r.handleEstimate)
	// Up to 8 sweep points in flight per worker.
	r.mux.Handle("POST /sweep", &service.Sweep{Resolve: r.sweepPoint, Width: 8 * len(cfg.Workers)})
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /stats", r.handleStats)
	r.mux.Handle("GET /metrics", reg.Handler())

	probeCtx, cancel := context.WithCancel(context.Background())
	r.probeStop = cancel
	go r.probe(probeCtx)
	return r, nil
}

// Handler returns the HTTP surface.
func (r *Router) Handler() http.Handler { return r.mux }

// Ring exposes the ring for stats and tests.
func (r *Router) Ring() *Ring { return r.ring }

// Close stops the health prober.
func (r *Router) Close() {
	r.probeStop()
	<-r.probeDone
}

// probe is the health loop: a failing /healthz ejects a worker from the
// ring, a succeeding one re-admits it. An ejected worker keeps its ring
// positions, so re-admission restores the same key ownership (and the
// warm cache behind it).
func (r *Router) probe(ctx context.Context) {
	defer close(r.probeDone)
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, n := range r.ring.Nodes() {
			ok := r.probeOnce(ctx, n)
			switch {
			case ok && n.setHealthy(true):
				r.readmits.Add(1)
				r.metrics.readmits.Inc()
				r.logger.Info("worker re-admitted", "node", n.Name, "url", n.URL)
			case !ok && n.setHealthy(false):
				r.ejections.Add(1)
				r.metrics.ejections.Inc()
				r.logger.Warn("worker ejected by health probe", "node", n.Name, "url", n.URL)
			}
		}
	}
}

// probeOnce asks one worker's /healthz.
func (r *Router) probeOnce(ctx context.Context, n *Node) bool {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// writeError emits a JSON error body, mirroring the worker's shape.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// routingKey fingerprints a request for ring placement and coalescing.
// The router applies no request policy (workers fold their own
// -target-rel/-max-trials/-bias defaults in before caching), so this key
// can differ from the worker's cache key — it only needs to be
// consistent: identical requests hash identically, so they land on the
// same worker and coalesce with each other.
func routingKey(req service.EstimateRequest) (string, error) {
	cfg, opt, err := req.Build()
	if err != nil {
		return "", err
	}
	return sim.Fingerprint(cfg, opt)
}

// hold takes node, picked from the ring, for one upstream request;
// forward releases it.
func (r *Router) hold(node *Node) *Node {
	node.acquire()
	r.routedTotal.Add(1)
	r.metrics.requests.With(node.Name).Inc()
	return node
}

// forward is the routing loop behind every proxied estimate: POST body
// to node's /estimate (node held by hold) and hand the response to
// consume while the worker is held. A transport failure, or consume
// reporting that the body died mid-read, ejects the worker (the prober
// re-admits it when it recovers) and retries on the ring successor; the
// successor recomputes (or disk-replays) deterministically, so the
// retried answer is the same bytes. HTTP error statuses are the worker
// *answering* — backpressure 503s and 4xxs reach consume untouched, for
// the client's own retry policy.
func (r *Router) forward(ctx context.Context, node *Node, key string, body []byte, consume func(*Node, *http.Response) error) error {
	var exclude []string
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, node.URL+"/estimate", bytes.NewReader(body))
		if err != nil {
			node.release()
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.client.Do(req)
		if err == nil {
			err = consume(node, resp)
			resp.Body.Close()
		}
		node.release()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if node.setHealthy(false) {
			r.ejections.Add(1)
			r.metrics.ejections.Inc()
			r.logger.Warn("worker ejected on request failure", "node", node.Name, "err", err.Error())
		}
		exclude = append(exclude, node.Name)
		r.retries.Add(1)
		r.metrics.retries.Inc()
		next, err := r.ring.Pick(key, exclude...)
		if err != nil {
			return err
		}
		node = r.hold(next)
	}
}

// dispatch sends body to node, the held worker the ring chose for key,
// and buffers its answer.
func (r *Router) dispatch(ctx context.Context, node *Node, key string, body []byte) (*upstream, error) {
	var res *upstream
	err := r.forward(ctx, node, key, body, func(node *Node, resp *http.Response) error {
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		res = &upstream{
			node:   node.Name,
			status: resp.StatusCode,
			cache:  resp.Header.Get("X-Ltsimd-Cache"),
			key:    resp.Header.Get("X-Ltsimd-Key"),
			body:   payload,
		}
		return nil
	})
	return res, err
}

// estimateOnce runs one non-progress estimate through the cluster-wide
// single-flight table: the first caller of a key dispatches, duplicates
// join and replay its buffered outcome. The worker is picked before the
// table is locked, so concurrent callers meet the bounded-load rule in
// arrival order. The dispatch runs on its own goroutine without the
// caller's cancellation: a caller that gives up ends only its own wait,
// and the request still completes (within the worker's job timeout),
// answers the other waiters and warms the worker's cache.
func (r *Router) estimateOnce(ctx context.Context, key string, body []byte) (*upstream, bool, error) {
	node, err := r.ring.Pick(key)
	if err != nil {
		return nil, false, err
	}
	res, joined, err := r.flights.Do(ctx, key, func(finish func(*upstream, error)) error {
		r.hold(node)
		go func() { finish(r.dispatch(context.WithoutCancel(ctx), node, key, body)) }()
		return nil
	})
	if joined {
		r.coalesced.Add(1)
		r.metrics.coalesced.Inc()
	}
	return res, joined, err
}

// handleEstimate proxies one estimate to the worker owning its
// fingerprint. Duplicate in-flight keys coalesce at the router before
// dispatch (one upstream request, everyone replays its bytes, the
// followers marked X-Ltsimd-Cache: dedup). Progress-streamed requests
// are routed by the same key but proxied straight through — a stream
// cannot be buffered for replay.
func (r *Router) handleEstimate(w http.ResponseWriter, req *http.Request) {
	var er service.EstimateRequest
	if !service.DecodeBody(w, req, &er) {
		return
	}
	// Forward what was decoded, as a sweep point does.
	body, err := json.Marshal(er)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := routingKey(er)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if er.Progress {
		r.proxyStream(w, req.Context(), key, body)
		return
	}
	res, joined, err := r.estimateOnce(req.Context(), key, body)
	if err != nil {
		writeError(w, upstreamStatus(err), err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Ltsimr-Node", res.node)
	if res.key != "" {
		h.Set("X-Ltsimd-Key", res.key)
	}
	disp := res.cache
	if joined {
		disp = "dedup"
	}
	if disp != "" {
		h.Set("X-Ltsimd-Cache", disp)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// upstreamStatus maps a dispatch error onto a response status.
func upstreamStatus(err error) int {
	switch {
	case errors.Is(err, ErrNoHealthyNodes):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadGateway
	}
}

// proxyStream forwards a progress-streamed estimate and relays the
// NDJSON frames as they arrive. Worker death before the first byte
// retries on the successor; after frames have flowed the stream just
// ends (the client re-requests and hits the successor's cache).
func (r *Router) proxyStream(w http.ResponseWriter, ctx context.Context, key string, body []byte) {
	node, err := r.ring.Pick(key)
	if err != nil {
		writeError(w, upstreamStatus(err), err)
		return
	}
	err = r.forward(ctx, r.hold(node), key, body, func(node *Node, resp *http.Response) error {
		h := w.Header()
		for _, name := range []string{"Content-Type", "X-Ltsimd-Key", "X-Ltsimd-Cache"} {
			if v := resp.Header.Get(name); v != "" {
				h.Set(name, v)
			}
		}
		h.Set("X-Ltsimr-Node", node.Name)
		w.WriteHeader(resp.StatusCode)
		flusher, _ := w.(http.Flusher)
		buf := make([]byte, 32*1024)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
				if flusher != nil {
					flusher.Flush()
				}
			}
			if err != nil {
				return nil
			}
		}
	})
	if err != nil && ctx.Err() == nil {
		writeError(w, upstreamStatus(err), err)
	}
}

// sweepPoint is the router's sweep backend for the shared sweep engine
// (service.Sweep): a point dispatches by routing key to the worker that
// owns it, joining any in-flight duplicate cluster-wide. OK lines carry
// the worker's X-Ltsimd-Key and node; a worker answer other than 200
// becomes an error line carrying the routing key.
func (r *Router) sweepPoint(req service.EstimateRequest) (string, service.SweepAnswer, error) {
	key, err := routingKey(req)
	if err != nil {
		return "", nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return "", nil, err
	}
	return key, func(ctx context.Context) ([]byte, string, string, string, error) {
		res, _, err := r.estimateOnce(ctx, key, body)
		if err == nil && res.status != http.StatusOK {
			err = fmt.Errorf("worker %s returned %d: %s", res.node, res.status, strings.TrimSpace(string(res.body)))
		}
		if err != nil {
			return nil, key, "", "", err
		}
		return res.body, res.key, res.cache, res.node, nil
	}, nil
}

// NodeHealth is one worker's row in the aggregated /healthz.
type NodeHealth struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// handleHealthz aggregates worker health: "ok" when every worker is
// admitted, "degraded" (still 200 — the cluster serves) while at least
// one is, and 503 "down" when the ring is empty.
func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	nodes := make([]NodeHealth, 0, len(r.ring.Nodes()))
	healthy := 0
	for _, n := range r.ring.Nodes() {
		ok := n.Healthy()
		if ok {
			healthy++
		}
		nodes = append(nodes, NodeHealth{Name: n.Name, URL: n.URL, Healthy: ok})
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case healthy == 0:
		status, code = "down", http.StatusServiceUnavailable
	case healthy < len(nodes):
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(r.start).Seconds(),
		"nodes":          nodes,
	})
}

// NodeStats is one worker's row in the aggregated /stats: its health,
// the router's view of its load, and the worker's own /stats payload
// (raw, so new worker fields pass through untouched).
type NodeStats struct {
	Name     string          `json:"name"`
	URL      string          `json:"url"`
	Healthy  bool            `json:"healthy"`
	Inflight int64           `json:"inflight"`
	Error    string          `json:"error,omitempty"`
	Stats    json.RawMessage `json:"stats,omitempty"`
}

// StatsSnapshot is the router's /stats payload: cluster-wide cache
// warmth (the aggregated hit rate over every tier of every node) plus
// per-node attribution.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Nodes         int     `json:"nodes"`
	HealthyNodes  int     `json:"healthy_nodes"`
	Routed        uint64  `json:"routed"`
	Coalesced     uint64  `json:"coalesced"`
	Retries       uint64  `json:"retries"`
	Ejections     uint64  `json:"ejections"`
	Readmissions  uint64  `json:"readmissions"`
	// ClusterHits/ClusterMisses aggregate the workers' memory-tier
	// counters; ClusterHitRate is their ratio — the cluster cache warmth
	// that sets sweep throughput.
	ClusterHits    uint64      `json:"cluster_hits"`
	ClusterMisses  uint64      `json:"cluster_misses"`
	ClusterHitRate float64     `json:"cluster_hit_rate"`
	PerNode        []NodeStats `json:"per_node"`
}

// handleStats fans /stats across the workers and aggregates.
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	nodes := r.ring.Nodes()
	rows := make([]NodeStats, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			row := NodeStats{Name: n.Name, URL: n.URL, Healthy: n.Healthy(), Inflight: n.Inflight()}
			ctx, cancel := context.WithTimeout(req.Context(), r.cfg.ProbeTimeout)
			defer cancel()
			sreq, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/stats", nil)
			if err == nil {
				var resp *http.Response
				if resp, err = r.client.Do(sreq); err == nil {
					body, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr != nil {
						err = rerr
					} else if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					} else {
						row.Stats = body
					}
				}
			}
			if err != nil {
				row.Error = err.Error()
			}
			rows[i] = row
		}(i, n)
	}
	wg.Wait()

	snap := StatsSnapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Nodes:         len(nodes),
		HealthyNodes:  r.ring.HealthyCount(),
		Routed:        r.routedTotal.Load(),
		Coalesced:     r.coalesced.Load(),
		Retries:       r.retries.Load(),
		Ejections:     r.ejections.Load(),
		Readmissions:  r.readmits.Load(),
		PerNode:       rows,
	}
	for _, row := range rows {
		if row.Stats == nil {
			continue
		}
		var ws service.StatsSnapshot
		if err := json.Unmarshal(row.Stats, &ws); err == nil {
			snap.ClusterHits += ws.Cache.Hits
			snap.ClusterMisses += ws.Cache.Misses
		}
	}
	if total := snap.ClusterHits + snap.ClusterMisses; total > 0 {
		snap.ClusterHitRate = float64(snap.ClusterHits) / float64(total)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}
