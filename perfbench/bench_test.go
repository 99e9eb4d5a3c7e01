package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGeneratorDeterministic: the request list is a pure function of the
// seed, and different seeds give different lists.
func TestGeneratorDeterministic(t *testing.T) {
	shapes := coldShapes()
	list := func(seed uint64) string {
		var parts []string
		for i := 0; i < 50; i++ {
			doc, fresh := sweepDoc(seed, i)
			parts = append(parts,
				mustJSON(t, coldRequest(seed, shapes, i)),
				mustJSON(t, doc), mustJSON(t, fresh),
				mustJSON(t, wideRequest(seed, i)))
		}
		parts = append(parts, mustJSON(t, warmDocs(seed)))
		return strings.Join(parts, "\n")
	}
	if a, b := list(7), list(7); a != b {
		t.Fatal("same seed generated different request lists")
	}
	if list(7) == list(8) {
		t.Fatal("different seeds generated the same request list")
	}

	seen := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		s := *coldRequest(7, shapes, i).Seed
		if seen[s] {
			t.Fatalf("estimate-cold request %d reuses seed %d", i, s)
		}
		seen[s] = true
	}
	hot := map[float64]bool{}
	for k := 0; k < hotSetSize; k++ {
		hot[float64(hotSeed(7, k))] = true
	}
	for i := 0; i < 50; i++ {
		doc, fresh := sweepDoc(7, i)
		vals := doc.Zip[0].Values
		if len(vals) != sweepPoints {
			t.Fatalf("sweep %d has %d points", i, len(vals))
		}
		distinct, nFresh := map[float64]bool{}, 0
		for j, v := range vals {
			distinct[v] = true
			if fresh[j] {
				nFresh++
				if hot[v] {
					t.Fatalf("sweep %d point %d is fresh but in the hot set", i, j)
				}
			} else if !hot[v] {
				t.Fatalf("sweep %d point %d is hot but not in the hot set", i, j)
			}
			if v != math.Trunc(v) || v >= 1<<53 {
				t.Fatalf("sweep %d point %d seed %v does not survive a float axis", i, j, v)
			}
		}
		if nFresh != sweepFresh || len(distinct) != sweepPoints {
			t.Fatalf("sweep %d: %d fresh, %d distinct points", i, nFresh, len(distinct))
		}
	}
}

// TestPercentileTenBeyond: a percentile is reported only with at least
// ten samples beyond the rank it picks.
func TestPercentileTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the helper must sort
		}
		return xs
	}
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(100), 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if n := minSamples(0.9); n != 100 {
		t.Fatalf("minSamples(0.9) = %d, want 100", n)
	}
	if n := minSamples(0.5); n != 20 {
		t.Fatalf("minSamples(0.5) = %d, want 20", n)
	}
}

// TestSelfTime: self time is a span's duration minus the union of its
// children's intervals, clipped to its own; link joins spans by answer
// key and containment.
func TestSelfTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "client", Keys: []string{"a", "b"}, Start: ms(0), End: ms(100)},
		{ID: 2, Name: "router", Start: ms(5), End: ms(95)},
		{ID: 3, Name: "worker", Key: "a", Start: ms(10), End: ms(50)},
		{ID: 4, Name: "worker", Key: "b", Start: ms(30), End: ms(70)}, // overlaps 3
		{ID: 5, Name: "store.get", Key: "a", Start: ms(12), End: ms(20)},
		{ID: 6, Name: "store.put", Key: "a", Start: ms(40), End: ms(45)},
		{ID: 7, Name: "worker", Key: "c", Start: ms(20), End: ms(30)}, // key of no op: a root
		{ID: 8, Name: "client", Keys: []string{"a"}, Start: ms(200), End: ms(210)},
		{ID: 9, Name: "worker", Key: "a", Start: ms(202), End: ms(208)}, // second op, no router
	}
	link(spans)
	wantParent := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 0, 8: 0, 9: 8}
	for _, s := range spans {
		if s.Parent != wantParent[s.ID] {
			t.Errorf("span %d parent %d, want %d", s.ID, s.Parent, wantParent[s.ID])
		}
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: ms(10),      // 100 - router 90
		2: ms(90 - 60), // workers cover 10..70 once
		3: ms(40 - 13), // store 8 + 5
		4: ms(40),
		5: ms(8),
		8: ms(4),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	// A child reaching outside its parent counts only inside it.
	p := span{ID: 1, Start: ms(10), End: ms(20)}
	if got := covered(p, []span{{Start: ms(0), End: ms(15)}, {Start: ms(18), End: ms(30)}}); got != ms(7) {
		t.Errorf("clipped coverage %v, want 7ms", got)
	}
}

func TestParseExposition(t *testing.T) {
	text := `# HELP x_seconds help
# TYPE x_seconds histogram
x_seconds_bucket{shard="0",le="+Inf"} 3
x_seconds_sum{shard="0"} 1.5
x_seconds_sum{shard="1"} 0.25
x_seconds_count{shard="0"} 3
plain_total 7
`
	got, err := parseExposition(strings.NewReader(text), "x_seconds_sum", "plain_total", "absent")
	if err != nil {
		t.Fatal(err)
	}
	if got["x_seconds_sum"] != 1.75 || got["plain_total"] != 7 || got["absent"] != 0 {
		t.Fatalf("parsed %v", got)
	}
}

//go:noinline
func burn(d time.Duration) {
	x := 1.0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	sinkF += x
}

// TestCPUShares decodes a real CPU profile of a busy loop.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes(), map[string][]string{
		"burn": {"repro/perfbench.burn", "main.burn"},
		"none": {"no/such/package."},
	})
	if err != nil {
		t.Fatal(err)
	}
	if shares["burn"] < 0.5 || shares["none"] != 0 {
		t.Fatalf("shares %v: want most samples in burn and none elsewhere", shares)
	}
}

// TestSmoke runs every workload briefly, traced, and estimate-cold
// untraced: every answer check must pass and every metric must be
// reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload")
	}
	for _, wl := range workloads(runtime.NumCPU()) {
		for _, trace := range []bool{true, false} {
			if !trace && wl.name != "estimate-cold" {
				continue
			}
			t.Run(wl.name, func(t *testing.T) {
				b := &bench{seed: 3, seconds: 100 * time.Millisecond, work: t.TempDir(), nproc: runtime.NumCPU()}
				w := wl
				if trace {
					b.tr = newTracer()
					w.minOps = 10 // a traced run reports no percentiles
				}
				res, err := b.run(w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < w.minOps {
					t.Fatalf("result %+v, failures %v", res, b.failures)
				}
				want := []string{"latency_p50_ms", "latency_p90_ms", "ops_per_s", "trials_per_s",
					"cpu_ms_per_op", "alloc_kb_per_op", "rss_peak_mb", "setup_s", "ok_ratio"}
				if trace {
					want = want[:0]
					for _, lm := range layerMetrics {
						want = append(want, lm.name)
					}
					want = append(want, "sim.fragile-mirror.ns_per_trial", "sim.bathtub.events_per_trial")
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
			})
		}
	}
}
