package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/service"
)

// estimate-cold: nproc closed-loop clients POST /estimate to one
// in-process ltsimd with a memory cache only. Every request carries a
// fresh seed, so every request misses and is simulated; the sim core
// dominates, and the router and store are not on the path.

type coldSystem struct {
	b      *bench
	svc    *service.Service
	srv    *server
	client *http.Client
	shapes []shape
	before schedSnapshot
}

func setupCold(b *bench) (system, error) {
	svc := service.New(service.Config{})
	srv, err := serve(b.tr.handler("worker", svc.Handler()))
	if err != nil {
		svc.Shutdown(context.Background())
		return nil, err
	}
	s := &coldSystem{b: b, svc: svc, srv: srv, client: newClient(), shapes: coldShapes()}
	// Ready means healthy and having served one cold answer of each shape.
	if err := getOK(s.client, srv.url+"/healthz"); err != nil {
		s.close()
		return nil, err
	}
	for k, sh := range s.shapes {
		warm := sh.req
		seed := derive(b.seed, "cold-warmup", uint64(k))
		warm.Seed = &seed
		if _, _, err := post(s.client, srv.url+"/estimate", warm); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *coldSystem) snapshot() schedSnapshot {
	snap, err := snapshotSched(s.client, []*service.Service{s.svc}, []string{s.srv.url})
	if err != nil {
		s.b.fail("scraping service metrics: %v", err)
	}
	return snap
}

func (s *coldSystem) begin() { s.before = s.snapshot() }

func (s *coldSystem) op(i int) outcome {
	req := coldRequest(s.b.seed, s.shapes, i)
	body, hdr, err := post(s.client, s.srv.url+"/estimate", req)
	if err != nil {
		return outcome{err: err}
	}
	if c := hdr.Get("X-Ltsimd-Cache"); c != "miss" {
		s.b.fail("estimate-cold op %d: fresh request served as %q, want miss", i, c)
	}
	return outcome{trials: req.Trials, answers: [][]byte{body}, keys: []string{hdr.Get("X-Ltsimd-Key")}}
}

// check decodes every answer and checks its trial count, compares a
// seed-chosen sample of cold-miss answers with the library, and replays
// a sample of recent requests, which must come back as memory hits with
// the same bytes.
func (s *coldSystem) check(b *bench, outs []outcome) {
	s.clusters(outs)
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if err := checkTrials(coldRequest(b.seed, s.shapes, o.index), o.answers[0]); err != nil {
			b.fail("estimate-cold op %d: %v", o.index, err)
		}
	}
	for _, i := range sample(b.seed, "cold-miss", len(outs), len(s.shapes)) {
		if outs[i].err != nil {
			continue
		}
		if err := sameBytes("cold miss", coldRequest(b.seed, s.shapes, i), outs[i].answers[0]); err != nil {
			b.fail("op %d: %v", i, err)
		}
	}
	// The memory LRU keeps the most recent answers; replay from those.
	recent := min(len(outs), 500)
	for _, j := range sample(b.seed, "cold-hit", recent, 3) {
		i := len(outs) - recent + j
		if outs[i].err != nil {
			continue
		}
		req := coldRequest(b.seed, s.shapes, i)
		body, hdr, err := post(s.client, s.srv.url+"/estimate", req)
		if err == nil && hdr.Get("X-Ltsimd-Cache") != "hit" {
			err = fmt.Errorf("replay served as %q, want hit", hdr.Get("X-Ltsimd-Cache"))
		}
		if err == nil {
			err = sameBytes("memory hit", req, body)
		}
		if err != nil {
			b.fail("estimate-cold replay of op %d: %v", i, err)
		}
	}
}

func (s *coldSystem) layers(b *bench, m metrics) {
	s.snapshot().sub(s.before).report(m)
}

func (s *coldSystem) close() {
	s.srv.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.svc.Shutdown(ctx)
	s.client.CloseIdleConnections()
}

// clusters prints each shape's latency band (p10..p90) and where the
// run's p50 and p90 fall, to show they sit inside a shape cluster and
// not in a gap between two.
func (s *coldSystem) clusters(outs []outcome) {
	byShape := make([][]float64, len(s.shapes))
	var all []float64
	for _, o := range outs {
		ms := float64(o.latency) / 1e6
		byShape[o.index%len(s.shapes)] = append(byShape[o.index%len(s.shapes)], ms)
		all = append(all, ms)
	}
	for k, xs := range byShape {
		lo, hi := quantile(xs, 0.1), quantile(xs, 0.9)
		fmt.Fprintf(os.Stderr, "perfbench: shape %-15s n=%d latency p10..p90 %.2f..%.2f ms\n", s.shapes[k].name, len(xs), lo, hi)
	}
	for _, p := range []float64{0.5, 0.9} {
		v := quantile(all, p)
		in := "a gap between clusters"
		for k, xs := range byShape {
			if v >= quantile(xs, 0.1) && v <= quantile(xs, 0.9) {
				in = "shape " + s.shapes[k].name
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: p%.0f %.2f ms lies in %s\n", 100*p, v, in)
	}
}
