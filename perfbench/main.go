// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the real public surfaces — the ltsimd
// service handler, the ltsimr router in front of in-process workers, and
// the library's Runner.EstimateStream — for a fixed number of seconds,
// checks every answer, and prints one JSON result as its last line:
//
//	perfbench --workload estimate-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run. With --trace 1 it carries the per-layer metrics: the run
// is traced (spans at the client, router, worker and store boundaries)
// and the layer fixtures run first. notes.json records what each
// workload stresses and bypasses, and which end-to-end metric each layer
// metric should move. run.sh builds and runs it from a checkout.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// bench is one invocation's state.
type bench struct {
	seed    uint64
	seconds time.Duration
	work    string // scratch directory inside the checkout
	nproc   int
	tr      *tracer // nil unless --trace 1
	// storeOpens are the store start-up times of sweep-routed restarts.
	storeOpens []float64

	mu       sync.Mutex
	failures []string
}

// fail records a failed answer check; any failure makes the run incorrect.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mu.Lock()
	b.failures = append(b.failures, msg)
	b.mu.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// outcome is one completed client op.
type outcome struct {
	index   int
	latency time.Duration
	err     error
	trials  int           // Monte Carlo trials this op caused to be simulated
	answers [][]byte      // served answer bytes, in request-index order
	keys    []string      // fingerprints of the answers
	ids     []int32       // the answers' entries in the answer log
	end     time.Duration // completion time, from the loop's start
}

// system is a ready workload target.
type system interface {
	// begin runs just before the timed loop: untimed path checks and
	// counter snapshots.
	begin()
	// op performs client op i and returns what it served.
	op(i int) outcome
	// check verifies the answers of ops [0, len(outs)) after the timed loop.
	check(b *bench, outs []outcome)
	// layers adds the workload's own per-layer metrics of a traced loop.
	layers(b *bench, m metrics)
	close()
}

// workload names a target and how a run drives it.
type workload struct {
	name    string
	clients int
	// minOps is a floor on completed ops, so p90 always has ten samples
	// beyond it and every run covers the same digest prefix.
	minOps int
	setup  func(b *bench) (system, error)
}

// digestOps is the number of leading ops every run digests, so two runs
// with one seed print the same digest whatever their op counts.
const digestOps = 100

// Each run sets its system up at least minSetups times, and more while
// the set-ups together have taken less than setupBudget, up to maxSetups;
// setup_s is the median. Cheap set-ups thus get more rounds.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

func workloads(nproc int) []workload {
	n := max(minSamples(0.9), digestOps)
	return []workload{
		{name: "estimate-cold", clients: nproc, minOps: n, setup: setupCold},
		{name: "sweep-routed", clients: 1, minOps: n, setup: setupRouted},
		{name: "estimate-wide", clients: 1, minOps: n, setup: setupWide},
	}
}

func main() {
	name := flag.String("workload", "", "workload: estimate-cold, sweep-routed or estimate-wide")
	seed := flag.Uint64("seed", 1, "seed the request list is generated from")
	seconds := flag.Float64("seconds", 10, "measured duration")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	work := flag.String("work", ".bench_build/perfbench", "scratch directory for stores and span files")
	flag.Parse()

	nproc := runtime.NumCPU()
	var wl *workload
	for _, w := range workloads(nproc) {
		if w.name == *name {
			wl = &w
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload estimate-cold|sweep-routed|estimate-wide, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s on %s, GOMAXPROCS=%d, nproc=%d\n", *name, runtime.Version(), runtime.GOMAXPROCS(0), nproc)
	b := &bench{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), work: *work, nproc: nproc}
	if *trace == 1 {
		b.tr = newTracer()
	}
	res, err := b.run(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run sets the workload up several times, drives the last system in a
// closed loop for b.seconds, checks the answers and reports metrics.
func (b *bench) run(wl workload) (result, error) {
	m := metrics{}
	if b.tr != nil {
		for _, lm := range layerMetrics {
			m.set(lm.name, 0, lm.unit)
		}
		if err := b.fixtures(m); err != nil {
			return result{}, fmt.Errorf("layer fixtures: %w", err)
		}
	}
	var sys system
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		s, err := wl.setup(b)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		sys = s
	}
	defer sys.close()
	fmt.Fprintf(os.Stderr, "perfbench: %s set-up rounds (s): %.4f\n", wl.name, setups)

	sys.begin()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	answers, err := newAnswerLog(filepath.Join(b.work, fmt.Sprintf("answers-%d.bin", os.Getpid())))
	if err != nil {
		return result{}, err
	}
	defer answers.close()
	var prof bytes.Buffer
	if b.tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
	}
	b.tr.setActive(true)
	cpu0 := cpuSeconds()
	start := time.Now()
	smp := startSampler(start)
	outs, wall := b.loop(sys, wl, answers, start)
	smp.close()
	cpu := cpuSeconds() - cpu0
	b.tr.setActive(false)
	if b.tr != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)
	rss := peakRSSMiB() // before the answers are read back for checking

	distinct, err := answers.load()
	if err != nil {
		return result{}, err
	}
	for _, key := range answers.mismatch {
		b.fail("key %s was served with different bytes", key)
	}
	for i := range outs {
		o := &outs[i]
		o.answers = make([][]byte, len(o.ids))
		for j, id := range o.ids {
			o.answers[j] = distinct[id]
		}
	}

	ops := len(outs)
	var lat []float64
	failed, trials := 0, 0
	for _, o := range outs {
		ms := float64(o.latency) / 1e6
		if o.err != nil {
			// A failed op counts in failed and ok_ratio and misses every
			// latency limit; correct covers the answers that were served.
			failed++
			ms = math.Inf(1)
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", o.index, o.err)
		}
		lat = append(lat, ms)
		trials += o.trials
	}
	if b.tr != nil {
		// Before the answer checks, whose replays would count as traffic.
		sys.layers(b, m)
	}
	sys.check(b, outs)
	printDigest(wl.name, b.seed, outs)

	if b.tr == nil {
		p50, err := percentile(lat, 0.5)
		if err != nil {
			return result{}, err
		}
		p90, err := percentile(lat, 0.9)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d ops=%d wall=%.3fs latency n=%d\n", wl.name, b.seed, ops, wall.Seconds(), len(lat))
		m.set("latency_p50_ms", capInf(p50, wall), "ms")
		m.set("latency_p90_ms", capInf(p90, wall), "ms")
		opsPerS, trialsPerS, cpuMs := float64(ops-failed)/wall.Seconds(), float64(trials)/wall.Seconds(), 1000*cpu/float64(ops)
		if o, t, c, r, ok := smp.windowRates(outs); ok {
			opsPerS, trialsPerS, cpuMs, rss = o, t, c, r
		}
		m.set("ops_per_s", opsPerS, "1/s")
		m.set("trials_per_s", trialsPerS, "1/s")
		m.set("cpu_ms_per_op", cpuMs, "ms")
		m.set("alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(ops), "KiB")
		m.set("rss_peak_mb", rss, "MiB")
		m.set("setup_s", median(setups), "s")
		m.set("ok_ratio", float64(ops-failed)/float64(ops), "ratio")
	} else {
		m.set("runtime.gc_cycles_per_op", float64(ms1.NumGC-ms0.NumGC)/float64(ops), "count")
		m.set("client.error_ratio", float64(failed)/float64(ops), "ratio")
		spanMetrics(m, b.tr.spans)
		shares, err := cpuShares(prof.Bytes(), profileLayers)
		if err != nil {
			return result{}, err
		}
		for name, v := range shares {
			m.set(name, v, "ratio")
		}
		path := filepath.Join(b.work, fmt.Sprintf("spans-%s-%d.ndjson", wl.name, b.seed))
		if err := writeSpans(path, b.tr.spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.tr.spans), path)
	}
	return result{Correct: len(b.failures) == 0, Attempted: ops, Failed: failed, Metrics: m}, nil
}

// loop is the closed loop: wl.clients clients each take the next request
// index and send it only after their previous op completed. Clients stop
// taking indices once b.seconds have passed and at least wl.minOps ops
// were issued; ops in flight finish. Answers go to the answer log;
// outcomes come back index-ordered.
func (b *bench) loop(sys system, wl workload, answers *answerLog, start time.Time) ([]outcome, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var outs []outcome
	deadline := start.Add(b.seconds)
	var wg sync.WaitGroup
	for c := 0; c < wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= wl.minOps && time.Now().After(deadline) {
					return
				}
				var t0 time.Duration
				if b.tr != nil {
					t0 = b.tr.now()
				}
				opStart := time.Now()
				o := sys.op(i)
				o.index, o.latency, o.end = i, time.Since(opStart), time.Since(start)
				if b.tr != nil {
					b.tr.add(span{Name: "client", Keys: o.keys, Start: t0, End: t0 + o.latency})
				}
				o.ids = answers.add(o.keys, o.answers)
				o.answers, o.keys = nil, nil
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(outs, func(i, j int) bool { return outs[i].index < outs[j].index })
	return outs, wall
}

// printDigest prints SHA-256 digests of the index-ordered answers: over
// the first digestOps ops, which every run with this seed covers, and
// over all ops of this run.
func printDigest(name string, seed uint64, outs []outcome) {
	h := sha256.New()
	var prefix string
	for i, o := range outs {
		if i == digestOps {
			prefix = hex.EncodeToString(h.Sum(nil))
		}
		for _, a := range o.answers {
			h.Write(a)
			h.Write([]byte{'\n'})
		}
	}
	all := hex.EncodeToString(h.Sum(nil))
	if prefix == "" {
		prefix = all
	}
	fmt.Printf("digest %s seed=%d first%d=%s all%d=%s\n", name, seed, min(digestOps, len(outs)), prefix, len(outs), all)
}

// capInf reports an infinite percentile (failed ops) as the loop's wall
// time, the longest latency any op of the run could have had.
func capInf(ms float64, wall time.Duration) float64 {
	if math.IsInf(ms, 1) {
		return float64(wall) / 1e6
	}
	return ms
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
