package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// estimateBiasFields is the slice of the estimate body the bias tests
// care about.
type estimateBiasFields struct {
	Bias             *float64 `json:"bias"`
	EffectiveSamples *float64 `json:"effective_samples"`
	Trials           int      `json:"trials"`
}

// TestServiceDefaultBiasPolicy: a daemon started with a server-wide bias
// default applies it to horizon-censored requests that did not choose a
// mode, leaves horizon-less requests unbiased (biasing requires a
// horizon), and counts the biased runs in /stats.
func TestServiceDefaultBiasPolicy(t *testing.T) {
	svc := New(Config{
		CacheSize: 64, Shards: 1, QueueDepth: 8, JobTimeout: time.Minute,
		SimParallel: 2, DefaultBias: -1, // model-chosen β
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})

	seed := uint64(7)
	resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Trials: 300, HorizonYears: 50, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("biased-by-policy request: %s: %s", resp.Status, readAll(t, resp))
	}
	var biased estimateBiasFields
	if err := json.Unmarshal(readAll(t, resp), &biased); err != nil {
		t.Fatal(err)
	}
	if biased.Bias == nil || *biased.Bias < 1 {
		t.Fatalf("policy-biased estimate bias = %v, want a resolved factor >= 1", biased.Bias)
	}
	if biased.EffectiveSamples == nil {
		t.Error("policy-biased estimate missing effective_samples")
	}

	// No horizon: the default must not apply (biasing requires one).
	plain := postJSON(t, ts.URL+"/estimate", EstimateRequest{Trials: 60, Seed: &seed})
	if plain.StatusCode != http.StatusOK {
		t.Fatalf("horizon-less request: %s: %s", plain.Status, readAll(t, plain))
	}
	var unbiased estimateBiasFields
	if err := json.Unmarshal(readAll(t, plain), &unbiased); err != nil {
		t.Fatal(err)
	}
	if unbiased.Bias != nil {
		t.Errorf("horizon-less estimate reports bias %v, want unbiased", *unbiased.Bias)
	}

	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(readAll(t, stats), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.BiasedRuns != 1 {
		t.Errorf("/stats biased_runs = %d, want 1 (one biased, one plain)", snap.BiasedRuns)
	}
}

// TestEstimateRequestExplicitBias: a request can pick its own bias on a
// daemon with no server-wide default, the resolved factor rides the
// response, and biased/unbiased requests never share a cache key.
func TestEstimateRequestExplicitBias(t *testing.T) {
	_, ts := newTestService(t)
	seed := uint64(9)
	base := EstimateRequest{Trials: 300, HorizonYears: 50, Seed: &seed}

	plain := postJSON(t, ts.URL+"/estimate", base)
	if plain.StatusCode != http.StatusOK {
		t.Fatalf("plain request: %s: %s", plain.Status, readAll(t, plain))
	}
	plainKey := plain.Header.Get("X-Ltsimd-Key")
	readAll(t, plain)

	req := base
	req.Bias = 200
	resp := postJSON(t, ts.URL+"/estimate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("biased request: %s: %s", resp.Status, readAll(t, resp))
	}
	if key := resp.Header.Get("X-Ltsimd-Key"); key == plainKey {
		t.Error("biased and unbiased requests share a cache key")
	}
	var got estimateBiasFields
	if err := json.Unmarshal(readAll(t, resp), &got); err != nil {
		t.Fatal(err)
	}
	if got.Bias == nil || *got.Bias != 200 {
		t.Errorf("explicit-bias estimate bias = %v, want 200", got.Bias)
	}

	// Invalid bias values are rejected before any simulation runs.
	bad := base
	bad.Bias = 0.5
	reject := postJSON(t, ts.URL+"/estimate", bad)
	body := readAll(t, reject)
	if reject.StatusCode == http.StatusOK {
		t.Errorf("bias 0.5 accepted, want a client error: %s", body)
	}
}

// TestBiasedEstimateDominantWeightEncodes: an auto-biased request whose
// loss weights are dominated by one trial (effective samples in (1, 2))
// once came back as HTTP 500 "json: unsupported value: -Inf", because
// the weighted MTTDL interval had no degrees of freedom. It must answer
// 200 with finite bounds.
func TestBiasedEstimateDominantWeightEncodes(t *testing.T) {
	_, ts := newTestService(t)
	seed := uint64(254223409361203)
	req := EstimateRequest{Replicas: 3, Trials: 2000, HorizonYears: 10, Seed: &seed, Bias: -1}
	resp := postJSON(t, ts.URL+"/estimate", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dominant-weight request: %s: %s", resp.Status, body)
	}
	var est struct {
		MTTDL struct{ Point, Lo, Hi float64 } `json:"mttdl_hours"`
		estimateBiasFields
	}
	if err := json.Unmarshal(body, &est); err != nil {
		t.Fatal(err)
	}
	if est.EffectiveSamples == nil || *est.EffectiveSamples >= 2 {
		t.Errorf("effective_samples = %v, want below 2 (the case this request pins)", est.EffectiveSamples)
	}
	if m := est.MTTDL; !(m.Lo <= m.Point && m.Point <= m.Hi) || math.IsInf(m.Lo, 0) || math.IsInf(m.Hi, 0) {
		t.Errorf("mttdl_hours = %+v, want a finite interval around the point", m)
	}
}
