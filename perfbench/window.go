package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// A run's rates are taken over consecutive windows of the timed loop and
// reported as their median across the run's whole windows, so that a
// brief stall on a shared host moves one window and not the result.
const (
	windowLen = 2 * time.Second
	rssEvery  = 50 * time.Millisecond
	// minWindows is the fewest whole windows a run needs for windowed
	// rates; shorter runs report whole-run rates.
	minWindows = 3
)

// sampler records, at each window boundary, the process CPU time, and
// per window the peak of RSS samples taken every rssEvery.
type sampler struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	at    []time.Duration // window boundaries, from 0
	cpu   []float64       // CPU seconds at each boundary
	rss   []float64       // peak RSS in MiB per window
}

func startSampler(start time.Time) *sampler {
	s := &sampler{start: start, stop: make(chan struct{}), done: make(chan struct{}),
		at: []time.Duration{0}, cpu: []float64{cpuSeconds()}}
	go s.run()
	return s
}

func (s *sampler) run() {
	defer close(s.done)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	peak := 0.0
	next := windowLen
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		peak = max(peak, currentRSSMiB())
		if now := time.Since(s.start); now >= next {
			s.at = append(s.at, now)
			s.cpu = append(s.cpu, cpuSeconds())
			s.rss = append(s.rss, peak)
			peak = 0
			next += windowLen
		}
	}
}

// close stops the sampler and waits for it to exit.
func (s *sampler) close() {
	close(s.stop)
	<-s.done
}

// windowRates returns the median over whole windows of ops/s, trials/s,
// CPU ms per op and peak RSS, counting each op in the window it ended in.
// ok is false when the run has fewer than minWindows windows.
func (s *sampler) windowRates(outs []outcome) (opsPerS, trialsPerS, cpuMsPerOp, rssMiB float64, ok bool) {
	n := len(s.at) - 1
	if n < minWindows {
		return 0, 0, 0, 0, false
	}
	ops := make([]float64, n)
	trials := make([]float64, n)
	for _, o := range outs {
		for w := 0; w < n; w++ {
			if o.end >= s.at[w] && o.end < s.at[w+1] && o.err == nil {
				ops[w]++
				trials[w] += float64(o.trials)
			}
		}
	}
	var opsRate, trialRate, cpuPerOp []float64
	for w := 0; w < n; w++ {
		secs := (s.at[w+1] - s.at[w]).Seconds()
		opsRate = append(opsRate, ops[w]/secs)
		trialRate = append(trialRate, trials[w]/secs)
		if ops[w] > 0 {
			cpuPerOp = append(cpuPerOp, 1000*(s.cpu[w+1]-s.cpu[w])/ops[w])
		}
	}
	return median(opsRate), median(trialRate), median(cpuPerOp), median(s.rss), true
}

// currentRSSMiB reads the process's resident set size from
// /proc/self/statm, falling back to the peak so far.
func currentRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if f := bytes.Fields(data); len(f) > 1 {
			if pages, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	return peakRSSMiB()
}
