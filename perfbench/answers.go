package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Answer checks shared by the workloads.

// decodeTrials decodes a served estimate and returns its trial count.
func decodeTrials(body []byte) (int, error) {
	var est report.EstimateJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&est); err != nil {
		return 0, fmt.Errorf("decoding answer: %w", err)
	}
	return est.Trials, nil
}

// checkTrials decodes body and checks its trial count against what req
// asked for: exactly Trials for a fixed run, within [Trials, MaxTrials]
// for an adaptive one.
func checkTrials(req scenario.EstimateRequest, body []byte) error {
	got, err := decodeTrials(body)
	if err != nil {
		return err
	}
	if req.TargetRelWidth > 0 {
		if got < req.Trials || got > req.MaxTrials {
			return fmt.Errorf("adaptive answer has %d trials, want within [%d, %d]", got, req.Trials, req.MaxTrials)
		}
		return nil
	}
	if got != req.Trials {
		return fmt.Errorf("answer has %d trials, want %d", got, req.Trials)
	}
	return nil
}

// direct computes req with the library at Parallel 1 and returns the
// canonical encoding every serving path must reproduce byte for byte.
func direct(req scenario.EstimateRequest) ([]byte, error) {
	cfg, opt, err := req.Build()
	if err != nil {
		return nil, err
	}
	opt.Parallel = 1
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	est, err := runner.Estimate(opt)
	if err != nil {
		return nil, err
	}
	return json.Marshal(report.NewEstimateJSON(est, opt.Horizon))
}

// sameBytes compares served bytes (the service appends a newline) with
// the library's encoding of the same request.
func sameBytes(path string, req scenario.EstimateRequest, served []byte) error {
	want, err := direct(req)
	if err != nil {
		return fmt.Errorf("%s: direct computation: %w", path, err)
	}
	if !bytes.Equal(bytes.TrimSuffix(served, []byte("\n")), want) {
		return fmt.Errorf("%s: served bytes differ from the library's at Parallel 1:\n served %.200s\n direct %.200s", path, served, want)
	}
	return nil
}

// sample picks k distinct indices in [0, n) from the run seed and a tag.
func sample(seed uint64, tag string, n, k int) []int {
	r := rand.New(rand.NewPCG(seed, derive(seed, tag, 0)))
	return r.Perm(n)[:min(k, n)]
}
