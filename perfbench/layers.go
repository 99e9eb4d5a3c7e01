package main

import (
	"net/http"

	"repro/internal/service"
)

// layerMetrics lists the per-layer metrics every traced run reports, with
// their units. A workload that does not put a layer on its path reports 0
// for that layer's timings and counts.
var layerMetrics = []struct{ name, unit string }{
	{"rng.ns_per_exp_draw", "ns"},
	{"rng.ns_per_derive", "ns"},
	{"des.ns_per_event", "ns"},
	{"des.allocs_per_event", "count"},
	{"faults.ns_per_sample_const", "ns"},
	{"faults.ns_per_sample_thinned", "ns"},
	{"sim.scaling_eff", "ratio"},
	{"sim.trials_per_s_p1", "1/s"},
	{"sim.trials_per_s_pn", "1/s"},
	{"sim.batches_per_run", "count"},
	{"sim.trials_per_run", "count"},
	{"sim.fingerprint_us", "us"},
	{"sim.cpu_share", "ratio"},
	{"store.cpu_share", "ratio"},
	{"router.cpu_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"scenario.build_us", "us"},
	{"scenario.expand_us", "us"},
	{"report.encode_us", "us"},
	{"router.pick_us", "us"},
	{"router.overhead_ratio", "ratio"},
	{"router.self_ms_mean", "ms"},
	{"router.retries", "count"},
	{"router.coalesced", "count"},
	{"service.handler_ms_p50", "ms"},
	{"service.http_overhead_ms", "ms"},
	{"service.queue_wait_ms_mean", "ms"},
	{"service.run_ms_mean", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"store.hit_ratio", "ratio"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.open_s", "s"},
	{"runtime.gc_cycles_per_op", "count"},
	{"client.error_ratio", "ratio"},
}

// schedSnapshot holds the service counters a traced run reports as
// deltas over its timed loop, summed over the workers.
type schedSnapshot struct {
	queueSum, queueCount float64 // ltsimd_sched_queue_wait_seconds
	runSum, runCount     float64 // ltsimd_sched_run_seconds
	hits, misses         float64 // memory LRU
}

// snapshotSched scrapes each worker's /metrics and reads its cache
// counters.
func snapshotSched(c *http.Client, svcs []*service.Service, urls []string) (schedSnapshot, error) {
	var s schedSnapshot
	for i, svc := range svcs {
		v, err := scrape(c, urls[i]+"/metrics",
			"ltsimd_sched_queue_wait_seconds_sum", "ltsimd_sched_queue_wait_seconds_count",
			"ltsimd_sched_run_seconds_sum", "ltsimd_sched_run_seconds_count")
		if err != nil {
			return s, err
		}
		s.queueSum += v["ltsimd_sched_queue_wait_seconds_sum"]
		s.queueCount += v["ltsimd_sched_queue_wait_seconds_count"]
		s.runSum += v["ltsimd_sched_run_seconds_sum"]
		s.runCount += v["ltsimd_sched_run_seconds_count"]
		cs := svc.Stats().Cache
		s.hits += float64(cs.Hits)
		s.misses += float64(cs.Misses)
	}
	return s, nil
}

func (s schedSnapshot) sub(o schedSnapshot) schedSnapshot {
	return schedSnapshot{
		queueSum: s.queueSum - o.queueSum, queueCount: s.queueCount - o.queueCount,
		runSum: s.runSum - o.runSum, runCount: s.runCount - o.runCount,
		hits: s.hits - o.hits, misses: s.misses - o.misses,
	}
}

// report sets the scheduler and cache metrics from a delta.
func (s schedSnapshot) report(m metrics) {
	if s.queueCount > 0 {
		m.set("service.queue_wait_ms_mean", 1000*s.queueSum/s.queueCount, "ms")
	}
	if s.runCount > 0 {
		m.set("service.run_ms_mean", 1000*s.runSum/s.runCount, "ms")
	}
	if s.hits+s.misses > 0 {
		m.set("service.cache_hit_ratio", s.hits/(s.hits+s.misses), "ratio")
	}
}

// spanMetrics derives the span-based metrics of a traced loop: worker
// handler p50, client self time (HTTP overhead outside the handlers) and
// router self time.
func spanMetrics(m metrics, spans []span) {
	link(spans)
	self := selfTimes(spans)
	var worker, client, router []float64
	for _, s := range spans {
		switch s.Name {
		case "worker":
			worker = append(worker, float64(s.dur())/1e6)
		case "client":
			client = append(client, float64(self[s.ID])/1e6)
		case "router":
			router = append(router, float64(self[s.ID])/1e6)
		}
	}
	if len(worker) > 0 {
		m.set("service.handler_ms_p50", median(worker), "ms")
		m.set("service.http_overhead_ms", mean(client), "ms")
	}
	if len(router) > 0 {
		m.set("router.self_ms_mean", mean(router), "ms")
	}
}

// profileLayers maps each CPU-share metric to the function-name prefixes
// that put a sample in it. The simulator core is the estimation run and
// what it calls; fingerprinting, though in package sim, is serving work.
var profileLayers = map[string][]string{
	"sim.cpu_share": {
		"repro/internal/sim.(*Runner).", "repro/internal/sim.(*trial)",
		"repro/internal/des.", "repro/internal/faults.", "repro/internal/rng.",
	},
	"store.cpu_share":      {"repro/internal/store."},
	"router.cpu_share":     {"repro/internal/router."},
	"runtime.gc_cpu_share": {"runtime.gcBgMarkWorker"},
}
