package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// streamFrames posts a progress request and decodes the NDJSON frames.
func streamFrames(t *testing.T, url string, req EstimateRequest) (frames []EstimateFrame, contentType string) {
	t.Helper()
	resp := postJSON(t, url+"/estimate", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress request: %s", resp.Status)
	}
	contentType = resp.Header.Get("Content-Type")
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f EstimateFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames, contentType
}

// A progress-streamed estimate must emit at least one progress frame
// before the final frame, and the final frame's result must be the
// exact bytes a plain request (or a cache replay) serves.
func TestEstimateProgressStreaming(t *testing.T) {
	_, ts := newTestService(t)
	seed := uint64(3)
	// > DefaultBatchSize trials so at least one non-final boundary exists.
	req := EstimateRequest{Trials: 600, HorizonYears: 50, Seed: &seed, Progress: true}

	frames, ct := streamFrames(t, ts.URL, req)
	if ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want at least one progress + one final", len(frames))
	}
	final := frames[len(frames)-1]
	if !final.Final || final.Cache != "miss" || len(final.Result) == 0 {
		t.Fatalf("bad final frame: %+v", final)
	}
	for i, f := range frames[:len(frames)-1] {
		if f.Final || f.Progress == nil {
			t.Fatalf("frame %d is not a progress frame: %+v", i, f)
		}
		if f.Progress.Budget != 600 {
			t.Errorf("frame %d budget %d, want 600", i, f.Progress.Budget)
		}
	}

	// The same request without progress serves the identical result body
	// — from cache, since the streamed run populated it.
	plainReq := req
	plainReq.Progress = false
	resp := postJSON(t, ts.URL+"/estimate", plainReq)
	if got := resp.Header.Get("X-Ltsimd-Cache"); got != "hit" {
		t.Errorf("plain request after streamed run: cache %q, want hit", got)
	}
	body := bytes.TrimSpace(readAll(t, resp))
	if !bytes.Equal(body, bytes.TrimSpace(final.Result)) {
		t.Error("final frame result differs from the plain response body")
	}

	// A second streamed request hits the cache: single final frame.
	frames2, _ := streamFrames(t, ts.URL, req)
	if len(frames2) != 1 || !frames2[0].Final || frames2[0].Cache != "hit" {
		t.Fatalf("cached stream frames: %+v", frames2)
	}
	if !bytes.Equal(bytes.TrimSpace(frames2[0].Result), bytes.TrimSpace(final.Result)) {
		t.Error("cached final frame differs from the first run's")
	}
}

// Adaptive requests cache by their canonical request (the stopping
// rule), not by realized trial count, and distinct targets get distinct
// entries.
func TestAdaptiveEstimateCacheable(t *testing.T) {
	_, ts := newTestService(t)
	seed := uint64(11)
	req := EstimateRequest{
		HorizonYears:   50,
		Seed:           &seed,
		TargetRelWidth: 0.2,
		MaxTrials:      20000,
	}
	first := postJSON(t, ts.URL+"/estimate", req)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("adaptive request: %s: %s", first.Status, readAll(t, first))
	}
	if got := first.Header.Get("X-Ltsimd-Cache"); got != "miss" {
		t.Fatalf("first adaptive request: cache %q", got)
	}
	firstKey := first.Header.Get("X-Ltsimd-Key")
	firstBody := readAll(t, first)

	second := postJSON(t, ts.URL+"/estimate", req)
	if got := second.Header.Get("X-Ltsimd-Cache"); got != "hit" {
		t.Errorf("repeat adaptive request: cache %q, want hit", got)
	}
	if !bytes.Equal(firstBody, readAll(t, second)) {
		t.Error("repeat adaptive response not bit-identical")
	}

	var est struct {
		Trials int `json:"trials"`
	}
	if err := json.Unmarshal(firstBody, &est); err != nil {
		t.Fatal(err)
	}
	if est.Trials == 0 || est.Trials >= 20000 {
		t.Errorf("adaptive run trials = %d, want early stop in (0, 20000)", est.Trials)
	}

	tighter := req
	tighter.TargetRelWidth = 0.1
	third := postJSON(t, ts.URL+"/estimate", tighter)
	if key := third.Header.Get("X-Ltsimd-Key"); key == firstKey {
		t.Error("different stopping targets share a cache key")
	}
	readAll(t, third)
}

// Daemon-level policy: DefaultTargetRel turns budget-less requests
// adaptive; MaxTrialsCap clamps budgets pre-fingerprint.
func TestServicePolicyDefaults(t *testing.T) {
	svc := New(Config{
		CacheSize: 64, Shards: 1, QueueDepth: 8, JobTimeout: time.Minute,
		SimParallel: 2, DefaultTargetRel: 0.2, MaxTrialsCap: 3000,
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})

	seed := uint64(5)
	resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{HorizonYears: 50, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy-default request: %s: %s", resp.Status, readAll(t, resp))
	}
	var est struct {
		Trials int `json:"trials"`
	}
	if err := json.Unmarshal(readAll(t, resp), &est); err != nil {
		t.Fatal(err)
	}
	// The adaptive default stops early; the cap bounds it even if not.
	if est.Trials > 3000 {
		t.Errorf("policy run trials = %d, want <= cap 3000", est.Trials)
	}

	// An explicit fixed budget above the cap is clamped, and the clamped
	// request shares its cache entry with the explicitly-clamped form.
	big := postJSON(t, ts.URL+"/estimate", EstimateRequest{Trials: 50000, HorizonYears: 50, Seed: &seed})
	if big.StatusCode != http.StatusOK {
		t.Fatalf("capped request: %s: %s", big.Status, readAll(t, big))
	}
	bigKey := big.Header.Get("X-Ltsimd-Key")
	readAll(t, big)
	capped := postJSON(t, ts.URL+"/estimate", EstimateRequest{Trials: 3000, HorizonYears: 50, Seed: &seed})
	if got := capped.Header.Get("X-Ltsimd-Cache"); got != "hit" {
		t.Errorf("explicitly-capped request: cache %q, want hit (key %s vs %s)",
			got, capped.Header.Get("X-Ltsimd-Key"), bigKey)
	}
	readAll(t, capped)
}

// Concurrent identical progress requests must coalesce onto one
// simulation: every response carries the same bytes, and the run
// executes once (one scheduled run).
func TestProgressSingleFlight(t *testing.T) {
	svc, ts := newTestService(t)
	seed := uint64(21)
	req := EstimateRequest{Trials: 5000, HorizonYears: 50, Seed: &seed, Progress: true}

	const clients = 4
	results := make(chan []byte, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp := postJSON(t, ts.URL+"/estimate", req)
			defer resp.Body.Close()
			var final EstimateFrame
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var f EstimateFrame
				if json.Unmarshal(sc.Bytes(), &f) == nil && f.Final {
					final = f
				}
			}
			results <- final.Result
		}()
	}
	var first []byte
	for i := 0; i < clients; i++ {
		got := <-results
		if len(got) == 0 {
			t.Fatal("a coalesced client got no final frame")
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			t.Error("coalesced clients got different results")
		}
	}
	// Every duplicate either joins the owner's run in flight or arrives
	// after it finished and replays the cache: the scheduler ran it once.
	if runs := svc.Stats().Scheduler.Completed; runs != 1 {
		t.Errorf("scheduler ran %d simulations for %d coalesced clients, want 1", runs, clients)
	}
}

// Progress with an invalid configuration still fails with a clean 400
// before any streaming starts.
func TestEstimateProgressBadRequest(t *testing.T) {
	_, ts := newTestService(t)
	resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Alpha: -2, Progress: true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad progress request: %s, want 400", resp.Status)
	}
}

// firstFrame posts a progress request under ctx and returns the
// response once its first frame has arrived, with a scanner positioned
// after that frame.
func firstFrame(t *testing.T, ctx context.Context, url string, req EstimateRequest) (*http.Response, *bufio.Scanner, EstimateFrame) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/estimate", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress request: %s: %s", resp.Status, readAll(t, resp))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("progress stream ended before its first frame: %v", sc.Err())
	}
	var f EstimateFrame
	if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
		t.Fatalf("bad frame %q: %v", sc.Text(), err)
	}
	return resp, sc, f
}

// finalFrame reads a progress stream to its last frame.
func finalFrame(t *testing.T, resp *http.Response, sc *bufio.Scanner, last EstimateFrame) EstimateFrame {
	t.Helper()
	defer resp.Body.Close()
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
	}
	return last
}

// A progress request that joins a run in flight still gets the final
// frame when the client that started the run disconnects: the owner's
// cancel ends only the owner's wait, never the shared run.
func TestProgressOwnerCancelKeepsFollower(t *testing.T) {
	svc, ts := newTestService(t)
	seed := uint64(31)
	req := EstimateRequest{Trials: 100000, HorizonYears: 50, Seed: &seed, Progress: true}

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	defer cancelOwner()
	owner, _, first := firstFrame(t, ownerCtx, ts.URL, req)
	defer owner.Body.Close()
	if first.Progress == nil {
		t.Fatalf("owner's first frame is not progress: %+v", first)
	}

	type result struct {
		final EstimateFrame
		cache string
	}
	body := mustJSON(t, req)
	followed := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			followed <- result{}
			return
		}
		defer resp.Body.Close()
		var last EstimateFrame
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			json.Unmarshal(sc.Bytes(), &last)
		}
		followed <- result{last, resp.Header.Get("X-Ltsimd-Cache")}
	}()
	time.Sleep(50 * time.Millisecond) // let the follower join the run
	cancelOwner()

	got := <-followed
	if !got.final.Final || len(got.final.Result) == 0 {
		t.Fatalf("follower got %+v (cache %q) after the owner cancelled, want the final frame", got.final, got.cache)
	}
	plain := req
	plain.Progress = false
	fresh := bytes.TrimSpace(readAll(t, postJSON(t, ts.URL+"/estimate", plain)))
	if !bytes.Equal(bytes.TrimSpace(got.final.Result), fresh) {
		t.Error("follower's final result differs from a fresh request's bytes")
	}
	if runs := svc.Stats().Scheduler.Completed; runs != 1 {
		t.Errorf("scheduler ran %d simulations, want 1", runs)
	}
}

// A plain and a progress request for the same key in flight together
// run one simulation: progress runs queue on the shard scheduler, so the
// plain request joins the progress run (or the reverse).
func TestPlainJoinsProgressRun(t *testing.T) {
	svc, ts := newTestService(t)
	seed := uint64(32)
	// Biased, so Stats().BiasedRuns counts every simulation executed,
	// on or off the scheduler.
	req := EstimateRequest{Trials: 50000, HorizonYears: 50, Seed: &seed, Bias: 4, Progress: true}
	before := svc.Stats()

	resp, sc, first := firstFrame(t, context.Background(), ts.URL, req)
	if first.Progress == nil {
		t.Fatalf("first frame is not progress: %+v", first)
	}
	plain := req
	plain.Progress = false
	presp := postJSON(t, ts.URL+"/estimate", plain)
	if got := presp.Header.Get("X-Ltsimd-Cache"); got != "dedup" {
		t.Errorf("plain request during the progress run: cache %q, want dedup", got)
	}
	body := bytes.TrimSpace(readAll(t, presp))
	final := finalFrame(t, resp, sc, first)
	if !final.Final || !bytes.Equal(bytes.TrimSpace(final.Result), body) {
		t.Fatalf("progress final frame %+v does not carry the plain response's bytes", final)
	}

	after := svc.Stats()
	if runs := after.BiasedRuns - before.BiasedRuns; runs != 1 {
		t.Errorf("%d simulations ran for one key, want 1", runs)
	}
	if runs := after.Scheduler.Completed - before.Scheduler.Completed; runs != 1 {
		t.Errorf("scheduler completed %d runs, want 1", runs)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
