package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/aging"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Layer fixtures for the traced run: fixed, seeded inputs driven through
// each layer's public functions, timed from here.

// sinkF and sinkI keep measured results alive so the compiler cannot
// drop the calls.
var (
	sinkF float64
	sinkI int
)

// fixtureReps is how many times each fixture loop runs; the median time
// is reported.
const fixtureReps = 3

// measure runs body(n) fixtureReps times and returns the median time per
// iteration in ns.
func measure(n int, body func(n int)) float64 {
	var times []float64
	for r := 0; r < fixtureReps; r++ {
		t0 := time.Now()
		body(n)
		times = append(times, float64(time.Since(t0))/float64(n))
	}
	return median(times)
}

func (b *bench) fixtures(m metrics) error {
	src := rng.New(b.seed)
	exp, err := rng.NewExponential(1000)
	if err != nil {
		return err
	}
	ns := measure(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sinkF += exp.Sample(src)
		}
	})
	m.set("rng.ns_per_exp_draw", ns, "ns")
	var into rng.Source
	ns = measure(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			src.DeriveInto(uint64(i), &into)
		}
	})
	sinkF += into.Float64()
	m.set("rng.ns_per_derive", ns, "ns")

	if err := b.desFixture(m); err != nil {
		return err
	}
	if err := b.faultsFixture(m); err != nil {
		return err
	}
	est, horizon, err := b.shapeFixtures(m)
	if err != nil {
		return err
	}
	if err := b.scalingFixture(m); err != nil {
		return err
	}
	return b.servingFixtures(m, est, horizon)
}

// desRig is a trial-shaped event schedule: two replicas whose faults
// schedule a repair and cancel and re-draw the peer's pending fault, as
// correlated acceleration does, run to a fixed horizon.
type desRig struct {
	e        des.Engine
	src      *rng.Source
	exp      rng.Exponential
	fault    [2]*des.Handle
	onFault  [2]des.Handler
	onRepair [2]des.Handler
}

func newDESRig(seed uint64, exp rng.Exponential) *desRig {
	g := &desRig{src: rng.New(seed), exp: exp}
	for r := range 2 {
		g.onFault[r] = func(e *des.Engine) {
			g.fault[r] = nil
			e.ScheduleAfter(10, g.onRepair[r])
			if p := 1 - r; g.fault[p] != nil {
				g.fault[p].Cancel()
				g.fault[p] = e.ScheduleAfter(g.exp.Sample(g.src), g.onFault[p])
			}
		}
		g.onRepair[r] = func(e *des.Engine) {
			g.fault[r] = e.ScheduleAfter(g.exp.Sample(g.src), g.onFault[r])
		}
	}
	return g
}

// trial runs one schedule and returns the number of events fired.
func (g *desRig) trial(horizon float64) int {
	g.e.Reset()
	for r := range 2 {
		g.fault[r] = g.e.Schedule(g.exp.Sample(g.src), g.onFault[r])
	}
	g.e.RunUntil(horizon)
	return int(g.e.Fired())
}

func (b *bench) desFixture(m metrics) error {
	exp, err := rng.NewExponential(1000)
	if err != nil {
		return err
	}
	g := newDESRig(b.seed, exp)
	const trials, horizon = 500, 1e5
	g.trial(horizon) // grow the queue and freelist once
	var times, allocs []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < fixtureReps; r++ {
		events := 0
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < trials; i++ {
			events += g.trial(horizon)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		times = append(times, float64(d)/float64(events))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(events))
	}
	m.set("des.ns_per_event", median(times), "ns")
	m.set("des.allocs_per_event", median(allocs), "count")
	return nil
}

func (b *bench) faultsFixture(m metrics) error {
	src := rng.New(derive(b.seed, "faults", 0))
	p, err := faults.NewProcess(1000)
	if err != nil {
		return err
	}
	ns := measure(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sinkF += p.SampleNext(src)
		}
	})
	m.set("faults.ns_per_sample_const", ns, "ns")
	// The estimate-cold bathtub profile, sampled at ages across its horizon.
	tub, err := aging.Bathtub(8760, 4, 87600, 8)
	if err != nil {
		return err
	}
	h, err := faults.Normalize(tub, 175200)
	if err != nil {
		return err
	}
	p.SetProfile(h)
	ns = measure(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sinkF += p.SampleNextAt(float64(i%200)*876, src)
		}
	})
	m.set("faults.ns_per_sample_thinned", ns, "ns")
	return nil
}

// shapeFixtures runs each estimate-cold shape at Parallel 1 and returns
// the last shape's estimate for the encoding fixture.
func (b *bench) shapeFixtures(m metrics) (sim.Estimate, float64, error) {
	var est sim.Estimate
	var horizon float64
	for k, sh := range coldShapes() {
		cfg, opt, err := sh.req.Build()
		if err != nil {
			return est, 0, err
		}
		opt.Parallel = 1
		opt.Seed = derive(b.seed, "shape", uint64(k))
		runner, err := sim.NewRunner(cfg)
		if err != nil {
			return est, 0, err
		}
		var times []float64
		var m0, m1 runtime.MemStats
		for r := 0; r < fixtureReps; r++ {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			est, err = runner.Estimate(opt)
			if err != nil {
				return est, 0, fmt.Errorf("shape %s: %w", sh.name, err)
			}
			times = append(times, float64(time.Since(t0))/float64(est.Trials))
			runtime.ReadMemStats(&m1)
		}
		st := est.Stats
		events := st.VisibleFaults + st.LatentFaults + st.Detections + st.Repairs + st.Audits + st.ShockEvents
		prefix := "sim." + sh.name + "."
		m.set(prefix+"ns_per_trial", median(times), "ns")
		m.set(prefix+"events_per_trial", float64(events)/float64(est.Trials), "count")
		m.set(prefix+"allocs_per_trial", float64(m1.Mallocs-m0.Mallocs)/float64(est.Trials), "count")
		horizon = opt.Horizon
	}
	return est, horizon, nil
}

// scalingFixture runs the estimate-wide shape at Parallel 1 and Parallel
// nproc on the same seeds, alternating, and reports trials/s at each,
// the scaling efficiency, and the exact batch and trial counts per run.
// The two worker counts must stop at the same trial count.
func (b *bench) scalingFixture(m metrics) error {
	cfg, opt, err := wideRun(b.seed, 0)
	if err != nil {
		return err
	}
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return err
	}
	const runs = 8
	var secs [2]float64
	var trials [2]int
	batches := 0
	for k := 0; k < runs; k++ {
		opt.Seed = derive(b.seed, "scaling", uint64(k))
		var got [2]int
		for side, par := range []int{1, b.nproc} {
			opt.Parallel = par
			var last sim.Progress
			t0 := time.Now()
			est, err := runner.EstimateStream(context.Background(), opt, func(p sim.Progress) { last = p })
			if err != nil {
				return err
			}
			secs[side] += time.Since(t0).Seconds()
			trials[side] += est.Trials
			got[side] = est.Trials
			if side == 1 {
				batches += last.Batches
			}
		}
		if got[0] != got[1] {
			b.fail("adaptive run stopped at %d trials at Parallel 1 but %d at Parallel %d", got[0], got[1], b.nproc)
		}
	}
	tps1, tpsN := float64(trials[0])/secs[0], float64(trials[1])/secs[1]
	m.set("sim.trials_per_s_p1", tps1, "1/s")
	m.set("sim.trials_per_s_pn", tpsN, "1/s")
	m.set("sim.scaling_eff", tpsN/(float64(b.nproc)*tps1), "ratio")
	m.set("sim.batches_per_run", float64(batches)/runs, "count")
	m.set("sim.trials_per_run", float64(trials[1])/runs, "count")
	return nil
}

// servingFixtures times the serving-side building blocks: fingerprinting,
// request build, scenario parse and expand, ring placement and result
// encoding.
func (b *bench) servingFixtures(m metrics, est sim.Estimate, horizon float64) error {
	base := sweepBase()
	seed := hotSeed(b.seed, 0)
	base.Seed = &seed
	cfg, opt, err := base.Build()
	if err != nil {
		return err
	}
	var ferr error
	ns := measure(5000, func(n int) {
		for i := 0; i < n; i++ {
			key, err := sim.Fingerprint(cfg, opt)
			if err != nil {
				ferr = err
			}
			sinkI += len(key)
		}
	})
	m.set("sim.fingerprint_us", ns/1e3, "us")

	shapes := coldShapes()
	ns = measure(5000, func(n int) {
		for i := 0; i < n; i++ {
			_, o, err := coldRequest(b.seed, shapes, i).Build()
			if err != nil {
				ferr = err
			}
			sinkI += o.Trials
		}
	})
	m.set("scenario.build_us", ns/1e3, "us")

	doc, _ := sweepDoc(b.seed, 0)
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	ns = measure(300, func(n int) {
		for i := 0; i < n; i++ {
			d, err := scenario.Parse(data)
			if err == nil {
				var pts []scenario.Point
				pts, err = scenario.Expand(d)
				sinkI += len(pts)
			}
			if err != nil {
				ferr = err
			}
		}
	})
	m.set("scenario.expand_us", ns/1e3, "us")

	ring, err := router.NewRing([]*router.Node{{Name: "w0", URL: "http://w0"}, {Name: "w1", URL: "http://w1"}}, 64, 1.25)
	if err != nil {
		return err
	}
	keys := make([]string, sweepPoints)
	for j := range keys {
		if keys[j], err = pointRequest(doc, j).Fingerprint(); err != nil {
			return err
		}
	}
	ns = measure(50_000, func(n int) {
		for i := 0; i < n; i++ {
			node, err := ring.Pick(keys[i%len(keys)])
			if err != nil {
				ferr = err
				continue
			}
			sinkI += len(node.Name)
		}
	})
	m.set("router.pick_us", ns/1e3, "us")

	ns = measure(5000, func(n int) {
		for i := 0; i < n; i++ {
			body, err := json.Marshal(report.NewEstimateJSON(est, horizon))
			if err != nil {
				ferr = err
			}
			sinkI += len(body)
		}
	})
	m.set("report.encode_us", ns/1e3, "us")
	return ferr
}
