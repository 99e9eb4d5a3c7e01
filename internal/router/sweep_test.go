package router

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/scenario"
	"repro/internal/service"
)

// sweepOutcome is what a sweep promises independent of front end: each
// index's result bytes (or error text) and the summary counts.
type sweepOutcome struct {
	byIndex                        map[int]string
	requested, ok, errors, deduped int
}

func runFrontEndSweep(t *testing.T, url string, body any) sweepOutcome {
	t.Helper()
	resp := post(t, url+"/sweep", body)
	raw := slurp(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %s: %s", resp.Status, raw)
	}
	lines, sum := decodeSweep(t, raw)
	out := sweepOutcome{
		byIndex:   make(map[int]string),
		requested: sum.Requested, ok: sum.OK, errors: sum.Errors, deduped: sum.Deduped,
	}
	for _, l := range lines {
		if _, dup := out.byIndex[l.Index]; dup {
			t.Fatalf("index %d answered twice", l.Index)
		}
		if l.Error != "" {
			out.byIndex[l.Index] = "error: " + l.Error
		} else {
			out.byIndex[l.Index] = string(l.Result)
		}
	}
	return out
}

// TestSweepSameAcrossFrontEnds runs the same batches through one daemon
// and through a router over two workers. Both front ends serve /sweep
// with the one shared engine, so every index must carry the same bytes
// and the summaries the same counts; the scenario spelling of the list's
// valid points must repeat the list's bytes.
func TestSweepSameAcrossFrontEnds(t *testing.T) {
	daemon := startWorkers(t, 1, nil)[0]
	_, rts := startRouter(t, startWorkers(t, 2, nil))
	frontEnds := []struct{ name, url string }{{"daemon", daemon.ts.URL}, {"router", rts.URL}}

	seed := uint64(11)
	base := service.EstimateRequest{Trials: 60, HorizonYears: 20, Seed: &seed}
	point := func(replicas int) service.EstimateRequest {
		req := base
		req.Replicas = replicas
		return req
	}
	invalid := service.EstimateRequest{Alpha: 5, Trials: 50}
	doc := scenario.Document{
		V:    scenario.Version,
		Base: base,
		Grid: []scenario.Axis{{Param: "replicas", Values: []float64{2, 3, 2, 4}}},
	}

	cases := []struct {
		name string
		body service.SweepRequest
		want sweepOutcome // counts only
		// same maps this batch's indices onto the list batch's indices
		// whose bytes they must repeat.
		same map[int]int
	}{
		{
			name: "list",
			body: service.SweepRequest{Requests: []service.EstimateRequest{point(2), point(3), point(2), invalid, point(4)}},
			want: sweepOutcome{requested: 5, ok: 4, errors: 1, deduped: 1},
		},
		{
			name: "scenario",
			body: service.SweepRequest{Scenario: &doc},
			want: sweepOutcome{requested: 4, ok: 4, deduped: 1},
			same: map[int]int{0: 0, 1: 1, 2: 2, 3: 4},
		},
	}
	var list map[int]string
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first sweepOutcome
			for i, fe := range frontEnds {
				got := runFrontEndSweep(t, fe.url, tc.body)
				if got.requested != tc.want.requested || got.ok != tc.want.ok ||
					got.errors != tc.want.errors || got.deduped != tc.want.deduped {
					t.Errorf("%s: requested/ok/errors/deduped = %d/%d/%d/%d, want %d/%d/%d/%d", fe.name,
						got.requested, got.ok, got.errors, got.deduped,
						tc.want.requested, tc.want.ok, tc.want.errors, tc.want.deduped)
				}
				if len(got.byIndex) != tc.want.requested {
					t.Errorf("%s: %d indices answered, want %d", fe.name, len(got.byIndex), tc.want.requested)
				}
				if i == 0 {
					first = got
					continue
				}
				for idx, want := range first.byIndex {
					if got.byIndex[idx] != want {
						t.Errorf("index %d: %s answered\n%s\n%s answered\n%s", idx, frontEnds[0].name, want, fe.name, got.byIndex[idx])
					}
				}
			}
			if tc.same == nil {
				list = first.byIndex
			}
			for idx, listIdx := range tc.same {
				if first.byIndex[idx] != list[listIdx] {
					t.Errorf("index %d differs from the explicit list's index %d", idx, listIdx)
				}
			}
		})
	}
}

// TestSweepRejectionsSameAcrossFrontEnds: a body the engine cannot
// serve is one 400 with the same error on both front ends.
func TestSweepRejectionsSameAcrossFrontEnds(t *testing.T) {
	daemon := startWorkers(t, 1, nil)[0]
	_, rts := startRouter(t, startWorkers(t, 2, nil))

	doc := scenario.Document{V: scenario.Version, Grid: []scenario.Axis{{Param: "replicas", Values: []float64{2}}}}
	bad := scenario.Document{V: scenario.Version, Grid: []scenario.Axis{{Param: "bogus", Values: []float64{1}}}}
	cases := []struct {
		name string
		body any
	}{
		{"ambiguous", service.SweepRequest{Requests: []service.EstimateRequest{{Trials: 50}}, Scenario: &doc}},
		{"empty", service.SweepRequest{}},
		{"over limit", service.SweepRequest{Requests: make([]service.EstimateRequest, scenario.MaxPoints+1)}},
		{"invalid scenario", service.SweepRequest{Scenario: &bad}},
		{"unknown field", map[string]any{"points": []int{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var answers [][]byte
			for _, url := range []string{daemon.ts.URL, rts.URL} {
				resp := post(t, url+"/sweep", tc.body)
				body := slurp(t, resp)
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: status %d (%s), want 400", url, resp.StatusCode, body)
				}
				answers = append(answers, body)
			}
			if !bytes.Equal(answers[0], answers[1]) {
				t.Errorf("daemon answered %s, router answered %s", answers[0], answers[1])
			}
		})
	}
}
