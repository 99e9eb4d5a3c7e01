package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/report"
	"repro/internal/sim"
)

// estimate-wide: one client makes adaptive, precision-targeted library
// calls (Runner.EstimateStream) at Parallel = nproc with fresh seeds. It
// is the only workload that fans one run out over several workers and
// exercises the batch-ordered reducer and the stopping rule; HTTP, the
// caches and the store are not on the path.

type wideSystem struct {
	b      *bench
	runner *sim.Runner
	opt    sim.Options
}

// wideRun is estimate-wide run i as library configuration and options.
func wideRun(seed uint64, i int) (sim.Config, sim.Options, error) {
	cfg, opt, err := wideRequest(seed, i).Build()
	opt.BatchSize = wideBatch
	return cfg, opt, err
}

func setupWide(b *bench) (system, error) {
	cfg, opt, err := wideRun(b.seed, 0)
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	opt.Parallel = b.nproc
	s := &wideSystem{b: b, runner: runner, opt: opt}
	// Ready means having produced a first answer.
	if _, _, err := s.estimate(derive(b.seed, "wide-warmup", 0)); err != nil {
		return nil, err
	}
	return s, nil
}

// estimate runs one adaptive estimate and encodes it the way every
// frontend does.
func (s *wideSystem) estimate(seed uint64) ([]byte, sim.Estimate, error) {
	opt := s.opt
	opt.Seed = seed
	est, err := s.runner.EstimateStream(context.Background(), opt, nil)
	if err != nil {
		return nil, est, err
	}
	body, err := json.Marshal(report.NewEstimateJSON(est, opt.Horizon))
	return body, est, err
}

func (s *wideSystem) begin() {}

func (s *wideSystem) op(i int) outcome {
	body, est, err := s.estimate(*wideRequest(s.b.seed, i).Seed)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{trials: est.Trials, answers: [][]byte{body}}
}

// check decodes every answer and checks its trial count lies within the
// adaptive bounds, and compares a seed-chosen sample with the library at
// Parallel 1: the answer must not depend on the worker count.
func (s *wideSystem) check(b *bench, outs []outcome) {
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if err := checkTrials(wideRequest(b.seed, o.index), o.answers[0]); err != nil {
			b.fail("estimate-wide op %d: %v", o.index, err)
		}
	}
	for _, i := range sample(b.seed, "wide", len(outs), 2) {
		if outs[i].err != nil {
			continue
		}
		opt := s.opt
		opt.Parallel, opt.Seed = 1, *wideRequest(b.seed, i).Seed
		est, err := s.runner.Estimate(opt)
		if err != nil {
			b.fail("estimate-wide op %d at Parallel 1: %v", i, err)
			continue
		}
		want, err := json.Marshal(report.NewEstimateJSON(est, opt.Horizon))
		if err == nil && !bytes.Equal(want, outs[i].answers[0]) {
			err = fmt.Errorf("answer at Parallel %d differs from Parallel 1:\n %.200s\n %.200s", s.opt.Parallel, outs[i].answers[0], want)
		}
		if err != nil {
			b.fail("estimate-wide op %d: %v", i, err)
		}
	}
}

func (s *wideSystem) layers(*bench, metrics) {}

func (s *wideSystem) close() {}
