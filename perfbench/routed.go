package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
)

// sweep-routed: one client POSTs scenario-document /sweep bodies to an
// in-process ltsimr in front of two in-process ltsimd workers, each with
// a DiskStore under a memory LRU smaller than its share of the hot set.
// Hot points are read hits (memory or disk); fresh points miss, simulate
// and write through to both tiers. Serving — HTTP, router fan-out,
// fingerprinting, store and NDJSON — is most of the work.

type routedWorker struct {
	svc *service.Service
	srv *server
	st  *timedStore
}

type routedSystem struct {
	b       *bench
	root    string
	workers []*routedWorker
	rt      *router.Router
	rtConns *http.Transport // the router's upstream connections
	rsrv    *server
	client  *http.Client
	before  schedSnapshot
	beforeR map[string]float64
	store0  storeCounts
}

// startWorker opens a store over dir and serves a worker over it; opened
// is how long the store took to open (its start-up scan).
func startWorker(b *bench, dir string) (w *routedWorker, opened float64, err error) {
	t0 := time.Now()
	ds, err := store.OpenDisk(dir, 0)
	if err != nil {
		return nil, 0, err
	}
	opened = time.Since(t0).Seconds()
	st := &timedStore{DiskStore: ds, tr: b.tr}
	svc := service.New(service.Config{CacheSize: workerLRU, Store: st})
	srv, err := serve(b.tr.handler("worker", svc.Handler()))
	if err != nil {
		svc.Shutdown(context.Background())
		return nil, 0, err
	}
	return &routedWorker{svc: svc, srv: srv, st: st}, opened, nil
}

// start brings up both workers over their store directories and the
// router in front of them, and returns the store opening times.
func (s *routedSystem) start() ([]float64, error) {
	var opens []float64
	for i := range 2 {
		w, opened, err := startWorker(s.b, filepath.Join(s.root, fmt.Sprintf("w%d", i)))
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, w)
		opens = append(opens, opened)
	}
	// The router's upstream transport keeps up to 16 idle connections per
	// worker, the router's whole sweep fan-out by default, so sweeps reuse
	// connections. With the default transport's 2, most upstream requests
	// of a sweep open a new connection, and a 20 s run leaves over ten
	// thousand sockets in TIME_WAIT. A transport of its own also lets a
	// restart drop them.
	s.rtConns = http.DefaultTransport.(*http.Transport).Clone()
	s.rtConns.MaxIdleConnsPerHost = 16
	cfg := router.Config{Client: &http.Client{Transport: s.rtConns}}
	for i, w := range s.workers {
		cfg.Workers = append(cfg.Workers, router.Worker{Name: fmt.Sprintf("w%d", i), URL: w.srv.url})
	}
	rt, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	s.rt = rt
	s.rsrv, err = serve(s.b.tr.handler("router", rt.Handler()))
	return opens, err
}

// stop shuts the router and workers down; each worker's Shutdown closes
// its store so the directory can be reopened.
func (s *routedSystem) stop() {
	if s.rsrv != nil {
		s.rsrv.close()
		s.rsrv = nil
	}
	if s.rt != nil {
		s.rt.Close()
		s.rt = nil
		s.rtConns.CloseIdleConnections()
	}
	for _, w := range s.workers {
		w.srv.close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		w.svc.Shutdown(ctx)
		cancel()
	}
	s.workers = nil
	s.client.CloseIdleConnections()
}

// setupRouted writes the hot set through a fresh cluster, then restarts
// the workers over their warm store directories: the daemon-restart cost
// is part of set-up.
func setupRouted(b *bench) (system, error) {
	root, err := os.MkdirTemp(b.work, "routed-")
	if err != nil {
		return nil, err
	}
	s := &routedSystem{b: b, root: root, client: newClient()}
	fail := func(err error) (system, error) {
		s.close()
		return nil, err
	}
	if _, err := s.start(); err != nil {
		return fail(err)
	}
	for _, doc := range warmDocs(b.seed) {
		if _, err := s.sweep(s.rsrv.url, doc); err != nil {
			return fail(fmt.Errorf("writing the hot set: %w", err))
		}
	}
	s.stop()
	opens, err := s.start()
	if err != nil {
		return fail(err)
	}
	b.storeOpens = append(b.storeOpens, opens...)
	if err := getOK(s.client, s.rsrv.url+"/healthz"); err != nil {
		return fail(err)
	}
	return s, nil
}

// sweep POSTs a scenario sweep and returns its answers in point order.
func (s *routedSystem) sweep(url string, doc scenario.Document) ([]service.SweepLine, error) {
	body, _, err := post(s.client, url+"/sweep", service.SweepRequest{Scenario: &doc})
	if err != nil {
		return nil, err
	}
	n := len(doc.Zip[0].Values)
	lines := make([]service.SweepLine, n)
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var l service.SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("decoding sweep line: %w", err)
		}
		switch {
		case l.Summary:
			if l.OK != n || l.Errors != 0 {
				return nil, fmt.Errorf("sweep summary: %d ok, %d errors of %d", l.OK, l.Errors, n)
			}
		case l.Error != "":
			return nil, fmt.Errorf("sweep point %d: %s", l.Index, l.Error)
		case l.Index < 0 || l.Index >= n || lines[l.Index].Result != nil:
			return nil, fmt.Errorf("sweep point index %d out of range or repeated", l.Index)
		default:
			lines[l.Index] = l
			seen++
		}
	}
	if seen != n {
		return nil, fmt.Errorf("sweep answered %d of %d points", seen, n)
	}
	return lines, sc.Err()
}

// pointRequest is the request behind point j of doc.
func pointRequest(doc scenario.Document, j int) scenario.EstimateRequest {
	req := doc.Base
	seed := uint64(doc.Zip[0].Values[j])
	req.Seed = &seed
	return req
}

// begin checks the disk-hit, memory-hit and routed paths on one hot
// point, then snapshots the counters the traced run reports as deltas.
func (s *routedSystem) begin() {
	k := sample(s.b.seed, "routed-hot", hotSetSize, 1)[0]
	req := sweepBase()
	seed := hotSeed(s.b.seed, k)
	req.Seed = &seed
	key, err := req.Fingerprint()
	if err != nil {
		s.b.fail("fingerprinting hot point: %v", err)
		return
	}
	// The worker that stored the point during set-up: usually its ring
	// owner, but bounded-load placement can send a point to the other.
	var holder *routedWorker
	for _, w := range s.workers {
		if _, err := os.Stat(w.st.Path(key)); err == nil {
			holder = w
		}
	}
	if holder == nil {
		s.b.fail("hot point %d is in no worker's store after set-up", k)
		return
	}
	for _, path := range []struct{ name, url, tier string }{
		{"disk hit", holder.srv.url, "disk"},
		{"memory hit", holder.srv.url, "hit"},
		{"routed", s.rsrv.url, ""},
	} {
		body, hdr, err := post(s.client, path.url+"/estimate", req)
		if err == nil && path.tier != "" && hdr.Get("X-Ltsimd-Cache") != path.tier {
			err = fmt.Errorf("served as %q, want %q", hdr.Get("X-Ltsimd-Cache"), path.tier)
		}
		if err == nil {
			err = sameBytes(path.name, req, body)
		}
		if err != nil {
			s.b.fail("sweep-routed %s of hot point %d: %v", path.name, k, err)
		}
	}
	s.before = s.snapshot()
	s.beforeR = s.routerCounters()
	s.store0 = s.storeCounts()
}

func (s *routedSystem) op(i int) outcome {
	doc, fresh := sweepDoc(s.b.seed, i)
	lines, err := s.sweep(s.rsrv.url, doc)
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{answers: make([][]byte, len(lines)), keys: make([]string, len(lines))}
	for j, l := range lines {
		o.answers[j], o.keys[j] = l.Result, l.Key
		if fresh[j] {
			o.trials += doc.Base.Trials
		}
	}
	return o
}

// check decodes every answer and checks its trial count, compares a
// seed-chosen sample of routed answers with the library, and requires
// that the router never retried.
func (s *routedSystem) check(b *bench, outs []outcome) {
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		for j, a := range o.answers {
			if err := checkTrials(sweepBase(), a); err != nil {
				b.fail("sweep-routed op %d point %d: %v", o.index, j, err)
			}
		}
	}
	for _, i := range sample(b.seed, "routed", len(outs), 3) {
		if outs[i].err != nil {
			continue
		}
		doc, _ := sweepDoc(b.seed, i)
		j := sample(b.seed, fmt.Sprint("routed-point", i), sweepPoints, 1)[0]
		if err := sameBytes("routed", pointRequest(doc, j), outs[i].answers[j]); err != nil {
			b.fail("sweep-routed op %d point %d: %v", i, j, err)
		}
	}
	if r := s.routerCounters()["ltsimr_retries_total"]; r != 0 {
		b.fail("router retried %v dispatches, want 0", r)
	}
}

func (s *routedSystem) snapshot() schedSnapshot {
	svcs := make([]*service.Service, len(s.workers))
	urls := make([]string, len(s.workers))
	for i, w := range s.workers {
		svcs[i], urls[i] = w.svc, w.srv.url
	}
	snap, err := snapshotSched(s.client, svcs, urls)
	if err != nil {
		s.b.fail("scraping worker metrics: %v", err)
	}
	return snap
}

func (s *routedSystem) routerCounters() map[string]float64 {
	c, err := scrape(s.client, s.rsrv.url+"/metrics", "ltsimr_retries_total", "ltsimr_coalesced_total")
	if err != nil {
		s.b.fail("scraping router metrics: %v", err)
	}
	return c
}

type storeCounts struct{ gets, hits, puts, getNanos, putNanos int64 }

func (s *routedSystem) storeCounts() storeCounts {
	var c storeCounts
	for _, w := range s.workers {
		c.gets += w.st.gets.Load()
		c.hits += w.st.hits.Load()
		c.puts += w.st.puts.Load()
		c.getNanos += w.st.getNanos.Load()
		c.putNanos += w.st.putNanos.Load()
	}
	return c
}

func (s *routedSystem) layers(b *bench, m metrics) {
	s.snapshot().sub(s.before).report(m)
	r := s.routerCounters()
	m.set("router.retries", r["ltsimr_retries_total"]-s.beforeR["ltsimr_retries_total"], "count")
	m.set("router.coalesced", r["ltsimr_coalesced_total"]-s.beforeR["ltsimr_coalesced_total"], "count")
	c := s.storeCounts()
	gets, puts := c.gets-s.store0.gets, c.puts-s.store0.puts
	if gets > 0 {
		m.set("store.hit_ratio", float64(c.hits-s.store0.hits)/float64(gets), "ratio")
		m.set("store.get_us", float64(c.getNanos-s.store0.getNanos)/float64(gets)/1e3, "us")
	}
	if puts > 0 {
		m.set("store.put_us", float64(c.putNanos-s.store0.putNanos)/float64(puts)/1e3, "us")
	}
	m.set("store.open_s", median(b.storeOpens), "s")
	if ratio, err := s.overheadRatio(); err != nil {
		b.fail("router overhead comparison: %v", err)
	} else {
		m.set("router.overhead_ratio", ratio, "ratio")
	}
}

// overheadRatio is the routed p50 over the direct-to-worker p50 of one
// warm sweep: hot points owned by one worker, few enough to fit in its
// memory LRU. Two untimed passes through each path warm it; the timed
// passes alternate between the paths.
func (s *routedSystem) overheadRatio() (float64, error) {
	owner := s.workers[0].srv.url
	var seeds []float64
	for k := 0; k < hotSetSize && len(seeds) < workerLRU*3/4; k++ {
		req := sweepBase()
		seed := hotSeed(s.b.seed, k)
		req.Seed = &seed
		key, err := req.Fingerprint()
		if err != nil {
			return 0, err
		}
		if n, err := s.rt.Ring().Pick(key); err == nil && n.URL == owner {
			seeds = append(seeds, float64(seed))
		}
	}
	doc := scenario.Document{
		V: scenario.Version, Name: "perfbench-hop", Base: sweepBase(),
		Zip: []scenario.Axis{{Param: "seed", Values: seeds}},
	}
	const warm, reps = 2, 21
	var ms [2][]float64
	for r := 0; r < warm+reps; r++ {
		for side, url := range []string{s.rsrv.url, owner} {
			t0 := time.Now()
			if _, err := s.sweep(url, doc); err != nil {
				return 0, err
			}
			if r >= warm {
				ms[side] = append(ms[side], float64(time.Since(t0))/1e6)
			}
		}
	}
	return median(ms[0]) / median(ms[1]), nil
}

func (s *routedSystem) close() {
	s.stop()
	os.RemoveAll(s.root)
}
