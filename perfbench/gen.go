package main

import (
	"math/rand/v2"

	"repro/internal/scenario"
)

// Request generation. Every request a run sends is a pure function of the
// run's --seed and the request's index, so a run never invents inputs
// from the clock: two runs with one seed send the same list, in the same
// index order, and can be diffed by their answer digests.

// seedMask keeps derived simulation seeds below 2^48, so they survive a
// trip through a scenario axis (axis values are float64).
const seedMask = 1<<48 - 1

// derive mixes the run seed with a stream tag and an index through
// SplitMix64's finalizer; distinct (tag, index) pairs give unrelated seeds.
func derive(seed uint64, tag string, i uint64) uint64 {
	x := seed
	for _, c := range []byte(tag) {
		x = mix64(x ^ uint64(c))
	}
	return mix64(x^mix64(i+0x9e3779b97f4a7c15)) & seedMask
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func f64(v float64) *float64 { return &v }

// shape is one fixed estimate-cold request form. The five trial budgets
// are chosen so each shape forms its own latency cluster, ordered from
// fastest to slowest, and the shapes cycle evenly: with five equal
// clusters the median sits in the middle of the third one and p90 in the
// middle of the fifth, never in a gap between two clusters.
type shape struct {
	name string
	req  scenario.EstimateRequest
}

// coldShapes returns the estimate-cold shapes, fastest first.
func coldShapes() []shape {
	scaledMirror := func(replicas, minIntact, trials int) scenario.EstimateRequest {
		// Datasheet means divided down so run-to-loss trials stay cheap:
		// 1000 h visible mean, no latent channel, 10 h repairs, no scrub.
		return scenario.EstimateRequest{
			Replicas: replicas, MinIntact: minIntact,
			VisibleMeanHours: 1000, LatentMeanHours: -1,
			RepairVisibleHours: 10, RepairLatentHours: 10,
			ScrubsPerYear: f64(0), Trials: trials,
		}
	}
	return []shape{
		{"bathtub", scenario.EstimateRequest{
			HorizonYears: 20, Trials: 1500,
			Hazard: &scenario.HazardSpec{
				Kind: "bathtub", BurnInHours: 8760, BurnInFactor: 4,
				WearOnsetHours: 87600, WearFactor: 8, NormalizeHours: 175200,
			},
		}},
		{"biased-rare", scenario.EstimateRequest{Replicas: 3, HorizonYears: 10, Bias: -1, Trials: 2000}},
		{"paper-scrubbed", scenario.EstimateRequest{Alpha: 0.1, HorizonYears: 50, Trials: 2500}},
		{"erasure-3of4", scaledMirror(4, 3, 1500)},
		{"fragile-mirror", scaledMirror(2, 0, 1000)},
	}
}

// coldRequest is estimate-cold request i: shape i mod 5 with a seed no
// other request of the run uses, so every request misses the cache.
func coldRequest(seed uint64, shapes []shape, i int) scenario.EstimateRequest {
	req := shapes[i%len(shapes)].req
	s := derive(seed, "cold", uint64(i))
	req.Seed = &s
	return req
}

// Sweep sizing for sweep-routed. The hot set is larger than the memory
// LRUs of both workers together, so hot reads split between memory and
// disk hits; every sweep also carries sweepFresh never-seen points, which
// miss, simulate and write through to both tiers.
const (
	sweepPoints = 40
	sweepFresh  = 6
	hotSetSize  = 200
	workerLRU   = 32
	sweepTrials = 100
)

// sweepBase is the cheap censored mirror every sweep point runs.
func sweepBase() scenario.EstimateRequest {
	return scenario.EstimateRequest{
		Replicas: 2, VisibleMeanHours: 5000, LatentMeanHours: 20000,
		HorizonYears: 5, Trials: sweepTrials,
	}
}

// hotSeed is the k-th seed of the run's hot set.
func hotSeed(seed uint64, k int) uint64 { return derive(seed, "hot", uint64(k)) }

// sweepDoc is sweep-routed request i: a scenario document whose single
// zip axis sets the seed of each of its sweepPoints points. sweepFresh
// positions, chosen per request, carry fresh seeds; the rest draw
// distinct members of the hot set. fresh reports which positions are new.
func sweepDoc(seed uint64, i int) (doc scenario.Document, fresh []bool) {
	r := rand.New(rand.NewPCG(seed, uint64(i)))
	hot := r.Perm(hotSetSize)[:sweepPoints]
	fresh = make([]bool, sweepPoints)
	for _, j := range r.Perm(sweepPoints)[:sweepFresh] {
		fresh[j] = true
	}
	seeds := make([]float64, sweepPoints)
	for j := range seeds {
		s := hotSeed(seed, hot[j])
		if fresh[j] {
			s = derive(seed, "fresh", uint64(i*sweepPoints+j))
		}
		seeds[j] = float64(s)
	}
	return scenario.Document{
		V: scenario.Version, Name: "perfbench-sweep", Base: sweepBase(),
		Zip: []scenario.Axis{{Param: "seed", Values: seeds}},
	}, fresh
}

// warmDocs are the sweeps that write the whole hot set, sweepPoints at a
// time, during sweep-routed set-up.
func warmDocs(seed uint64) []scenario.Document {
	var docs []scenario.Document
	for lo := 0; lo < hotSetSize; lo += sweepPoints {
		seeds := make([]float64, 0, sweepPoints)
		for k := lo; k < min(lo+sweepPoints, hotSetSize); k++ {
			seeds = append(seeds, float64(hotSeed(seed, k)))
		}
		docs = append(docs, scenario.Document{
			V: scenario.Version, Name: "perfbench-warm", Base: sweepBase(),
			Zip: []scenario.Axis{{Param: "seed", Values: seeds}},
		})
	}
	return docs
}

// Adaptive run-to-loss mirror for estimate-wide: one fixed shape, so the
// latency distribution has a single mode; only the seed changes. Runs
// stop after 13 to 15 batches of 128 trials, so the stopping point moves
// in steps of a few percent of an op. With a few large batches the
// distribution splits instead: 256-trial batches at a 0.05 target stop
// at 1536 or 1792 trials, and 512-trial batches at this target give a
// sparse tail (batches claimed past the stopping point) that p90 lands in.
const (
	wideTarget    = 0.047
	wideMinTrials = 256
	wideMaxTrials = 16384
	wideBatch     = 128
)

func wideRequest(seed uint64, i int) scenario.EstimateRequest {
	s := derive(seed, "wide", uint64(i))
	return scenario.EstimateRequest{
		Replicas: 2, VisibleMeanHours: 1000, LatentMeanHours: -1,
		RepairVisibleHours: 10, RepairLatentHours: 10, ScrubsPerYear: f64(0),
		Trials: wideMinTrials, TargetRelWidth: wideTarget, MaxTrials: wideMaxTrials,
		Seed: &s,
	}
}
