package stats

import (
	"math"
	"math/rand"
	"testing"
)

// naiveWeightedMoments is the two-pass reference: Σwx/Σw and the
// frequency-interpretation weighted sample variance.
func naiveWeightedMoments(xs, ws []float64) (mean, variance float64) {
	var sumW, sumW2, sumWX float64
	for i, x := range xs {
		sumW += ws[i]
		sumW2 += ws[i] * ws[i]
		sumWX += ws[i] * x
	}
	mean = sumWX / sumW
	var m2 float64
	for i, x := range xs {
		m2 += ws[i] * (x - mean) * (x - mean)
	}
	return mean, m2 / (sumW - sumW2/sumW)
}

func TestWeightedMeanMatchesTwoPass(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	ws := make([]float64, 500)
	var m WeightedMean
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 10
		ws[i] = r.ExpFloat64() + 0.01
		m.Add(xs[i], ws[i])
	}
	wantMean, wantVar := naiveWeightedMoments(xs, ws)
	if !almostEqual(m.Mean(), wantMean, 1e-10) {
		t.Errorf("Mean = %v, want %v", m.Mean(), wantMean)
	}
	if !almostEqual(m.Variance(), wantVar, 1e-9) {
		t.Errorf("Variance = %v, want %v", m.Variance(), wantVar)
	}
	if m.N() != len(xs) {
		t.Errorf("N = %d, want %d", m.N(), len(xs))
	}
}

// TestWeightedMeanCIDominantWeight: one weight dwarfing the rest puts
// the effective sample size in (1, 2), where a t-interval has no degrees
// of freedom; MeanCI must report no data rather than an infinite
// interval.
func TestWeightedMeanCIDominantWeight(t *testing.T) {
	var m WeightedMean
	m.Add(10, 1)
	m.Add(20, 0.05)
	m.Add(30, 0.05)
	if ess := m.EffectiveN(); ess <= 1 || ess >= 2 {
		t.Fatalf("EffectiveN = %v, want in (1, 2)", ess)
	}
	if iv, err := m.MeanCI(0.95); err != ErrNoData {
		t.Errorf("MeanCI = %+v, %v; want ErrNoData", iv, err)
	}
	m.Add(15, 1)
	iv, err := m.MeanCI(0.95)
	if err != nil || math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
		t.Errorf("MeanCI at EffectiveN %v = %+v, %v; want a finite interval", m.EffectiveN(), iv, err)
	}
}

func TestWeightedMeanEqualWeightsDegeneratesToRunning(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var wm WeightedMean
	var rn Running
	for i := 0; i < 200; i++ {
		x := r.NormFloat64()
		wm.Add(x, 1)
		rn.Add(x)
	}
	if !almostEqual(wm.Mean(), rn.Mean(), 1e-12) {
		t.Errorf("equal-weight Mean = %v, Running mean = %v", wm.Mean(), rn.Mean())
	}
	if !almostEqual(wm.Variance(), rn.Variance(), 1e-10) {
		t.Errorf("equal-weight Variance = %v, Running variance = %v", wm.Variance(), rn.Variance())
	}
	if ess := wm.EffectiveN(); !almostEqual(ess, 200, 1e-9) {
		t.Errorf("equal-weight EffectiveN = %v, want 200", ess)
	}
}

func TestWeightedMeanMergeMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs := make([]float64, 300)
	ws := make([]float64, 300)
	for i := range xs {
		xs[i] = r.NormFloat64() * 5
		ws[i] = r.ExpFloat64()
	}
	var seq WeightedMean
	for i := range xs {
		seq.Add(xs[i], ws[i])
	}
	// Three uneven partials merged in order.
	var a, b, c WeightedMean
	for i := range xs {
		switch {
		case i < 50:
			a.Add(xs[i], ws[i])
		case i < 220:
			b.Add(xs[i], ws[i])
		default:
			c.Add(xs[i], ws[i])
		}
	}
	a.Merge(b)
	a.Merge(c)
	if !almostEqual(a.Mean(), seq.Mean(), 1e-10) {
		t.Errorf("merged Mean = %v, sequential = %v", a.Mean(), seq.Mean())
	}
	if !almostEqual(a.Variance(), seq.Variance(), 1e-8) {
		t.Errorf("merged Variance = %v, sequential = %v", a.Variance(), seq.Variance())
	}
	if a.N() != seq.N() || !almostEqual(a.SumWeights(), seq.SumWeights(), 1e-10) {
		t.Errorf("merged N/ΣW = %d/%v, sequential = %d/%v", a.N(), a.SumWeights(), seq.N(), seq.SumWeights())
	}
}

func TestWeightedMeanMergeEmptySides(t *testing.T) {
	var full WeightedMean
	full.Add(2, 1.5)
	full.Add(4, 0.5)

	empty := WeightedMean{}
	got := full
	got.Merge(empty)
	if got.Mean() != full.Mean() || got.N() != full.N() {
		t.Errorf("merge with empty changed state: %v", got)
	}
	var other WeightedMean
	other.Merge(full)
	if other.Mean() != full.Mean() || other.N() != full.N() {
		t.Errorf("empty.Merge(full) = %v, want copy of full", other)
	}
}

func TestWeightedMeanSkewedWeightsShrinkEffectiveN(t *testing.T) {
	var m WeightedMean
	// One dominant weight: ESS should collapse toward 1 even with many
	// observations.
	m.Add(1, 1000)
	for i := 0; i < 99; i++ {
		m.Add(2, 0.001)
	}
	if ess := m.EffectiveN(); ess > 1.1 {
		t.Errorf("EffectiveN = %v with one dominant weight, want ~1", ess)
	}
	if m.N() != 100 {
		t.Errorf("N = %d, want 100", m.N())
	}
}

func TestWeightedMeanEmptyAndCI(t *testing.T) {
	var m WeightedMean
	if !math.IsNaN(m.Mean()) {
		t.Errorf("empty Mean = %v, want NaN", m.Mean())
	}
	if _, err := m.MeanCI(0.95); err == nil {
		t.Error("empty MeanCI error = nil, want ErrNoData")
	}
	m.Add(5, 2)
	if _, err := m.MeanCI(0.95); err == nil {
		t.Error("single-observation MeanCI error = nil, want ErrNoData (ESS <= 1)")
	}
	m.Add(7, 2)
	m.Add(6, 2)
	iv, err := m.MeanCI(0.95)
	if err != nil {
		t.Fatalf("MeanCI: %v", err)
	}
	if !(iv.Lo <= iv.Point && iv.Point <= iv.Hi) {
		t.Errorf("interval not ordered: %+v", iv)
	}
	if !almostEqual(iv.Point, 6, 1e-12) {
		t.Errorf("Point = %v, want 6", iv.Point)
	}
}

func TestWeightedProportionHorvitzThompson(t *testing.T) {
	// Hand-checked: 4 trials, weights {0.5, 2, 1, 3}, hits on the 2 and
	// the 3. Estimate = (2+3)/4.
	var p WeightedProportion
	p.Add(false, 0.5)
	p.Add(true, 2)
	p.Add(false, 1)
	p.Add(true, 3)
	if got := p.Estimate(); !almostEqual(got, 1.25, 1e-12) {
		t.Errorf("Estimate = %v, want 1.25", got)
	}
	if p.N() != 4 || p.Hits() != 2 {
		t.Errorf("N/Hits = %d/%d, want 4/2", p.N(), p.Hits())
	}
	if got := p.SumWeights(); !almostEqual(got, 6.5, 1e-12) {
		t.Errorf("SumWeights = %v, want 6.5", got)
	}
	// ESS of the hitting trials: (2+3)²/(4+9) = 25/13.
	if got := p.EffectiveN(); !almostEqual(got, 25.0/13.0, 1e-12) {
		t.Errorf("EffectiveN = %v, want %v", got, 25.0/13.0)
	}
}

func TestWeightedProportionUnitWeightsMatchProportion(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var wp WeightedProportion
	var pl Proportion
	for i := 0; i < 400; i++ {
		hit := r.Float64() < 0.3
		wp.Add(hit, 1)
		pl.Add(hit)
	}
	if !almostEqual(wp.Estimate(), pl.Estimate(), 1e-12) {
		t.Errorf("unit-weight Estimate = %v, Proportion = %v", wp.Estimate(), pl.Estimate())
	}
	if ess := wp.EffectiveN(); !almostEqual(ess, float64(pl.Hits()), 1e-9) {
		t.Errorf("unit-weight EffectiveN = %v, want hit count %d", ess, pl.Hits())
	}
}

func TestWeightedProportionMergeExact(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var seq, a, b WeightedProportion
	for i := 0; i < 300; i++ {
		hit := r.Float64() < 0.1
		w := r.ExpFloat64() * 2
		seq.Add(hit, w)
		if i%2 == 0 {
			a.Add(hit, w)
		} else {
			b.Add(hit, w)
		}
	}
	a.Merge(b)
	// All state is plain sums, so the merge is exact up to float addition
	// order; compare tightly.
	if !almostEqual(a.Estimate(), seq.Estimate(), 1e-12) {
		t.Errorf("merged Estimate = %v, sequential = %v", a.Estimate(), seq.Estimate())
	}
	if a.N() != seq.N() || a.Hits() != seq.Hits() {
		t.Errorf("merged N/Hits = %d/%d, sequential = %d/%d", a.N(), a.Hits(), seq.N(), seq.Hits())
	}
	ci1, err1 := a.CI(0.95)
	ci2, err2 := seq.CI(0.95)
	if err1 != nil || err2 != nil {
		t.Fatalf("CI errors: %v / %v", err1, err2)
	}
	if !almostEqual(ci1.Lo, ci2.Lo, 1e-12) || !almostEqual(ci1.Hi, ci2.Hi, 1e-12) {
		t.Errorf("merged CI = %+v, sequential = %+v", ci1, ci2)
	}
}

func TestWeightedProportionCIClampedAndOrdered(t *testing.T) {
	var p WeightedProportion
	// Heavy weights on rare hits drive the raw normal interval outside
	// [0, 1]; the reported interval must stay clamped.
	p.Add(true, 50)
	for i := 0; i < 9; i++ {
		p.Add(false, 0.1)
	}
	iv, err := p.CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo < 0 || iv.Hi > 1 {
		t.Errorf("interval not clamped to [0,1]: %+v", iv)
	}
	if !(iv.Lo <= iv.Hi) {
		t.Errorf("interval inverted: %+v", iv)
	}
}

func TestWeightedProportionEmpty(t *testing.T) {
	var p WeightedProportion
	if !math.IsNaN(p.Estimate()) {
		t.Errorf("empty Estimate = %v, want NaN", p.Estimate())
	}
	if _, err := p.CI(0.95); err == nil {
		t.Error("empty CI error = nil, want ErrNoData")
	}
	if p.EffectiveN() != 0 {
		t.Errorf("empty EffectiveN = %v, want 0", p.EffectiveN())
	}
}

// TestControlVariateRecoversAndTightens: the weight-regression control
// variate (E[w] = 1 exactly) recovers the true probability and its
// interval is no wider than the plain Horvitz–Thompson one; with
// degenerate unit weights it falls back to the plain estimate.
func TestControlVariateRecoversAndTightens(t *testing.T) {
	const (
		trueP = 0.02
		boost = 25.0
		n     = 50000
	)
	r := rand.New(rand.NewSource(43))
	var p WeightedProportion
	for i := 0; i < n; i++ {
		hit := r.Float64() < trueP*boost
		w := (1 - trueP) / (1 - trueP*boost)
		if hit {
			w = 1 / boost
		}
		p.Add(hit, w)
	}
	plain, err := p.CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := p.ControlVariateCI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Lo > trueP || trueP > cv.Hi {
		t.Errorf("control-variate interval [%v, %v] misses the truth %v", cv.Lo, cv.Hi, trueP)
	}
	if cvW, plainW := cv.Hi-cv.Lo, plain.Hi-plain.Lo; cvW > plainW*1.0001 {
		t.Errorf("control-variate interval width %v exceeds plain width %v", cvW, plainW)
	}

	// Unit weights: Var(w) = 0, so the adjustment must degrade to the
	// plain estimator rather than divide by zero.
	var unit WeightedProportion
	for i := 0; i < 100; i++ {
		unit.Add(i%10 == 0, 1)
	}
	plainU, err1 := unit.CI(0.95)
	cvU, err2 := unit.ControlVariateCI(0.95)
	if err1 != nil || err2 != nil {
		t.Fatalf("unit-weight CI errors: %v / %v", err1, err2)
	}
	if cvU != plainU {
		t.Errorf("unit-weight control variate = %+v, want plain %+v", cvU, plainU)
	}
}

// TestWeightedProportionCoverage is the statistical sanity check: with
// simulated importance-sampling weights (hit probability boosted 10x,
// weight 1/10 per hit), the HT estimate recovers the true probability
// and the CI covers it at roughly the nominal rate.
func TestWeightedProportionCoverage(t *testing.T) {
	const (
		trueP = 0.01
		boost = 10.0
		reps  = 200
		n     = 2000
	)
	r := rand.New(rand.NewSource(31))
	covered := 0
	for rep := 0; rep < reps; rep++ {
		var p WeightedProportion
		for i := 0; i < n; i++ {
			hit := r.Float64() < trueP*boost
			w := 1.0
			if hit {
				w = 1 / boost
			}
			// Non-hitting trials keep weight ~1 in expectation: the
			// residual measure ratio (1-p)/(1-bp) ≈ 1 for small p; use it
			// exactly so E[w] = 1.
			if !hit {
				w = (1 - trueP) / (1 - trueP*boost)
			}
			p.Add(hit, w)
		}
		iv, err := p.CI(0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Lo <= trueP && trueP <= iv.Hi {
			covered++
		}
	}
	rate := float64(covered) / reps
	if rate < 0.88 || rate > 0.995 {
		t.Errorf("95%% CI covered the truth in %.1f%% of %d reps, want ~95%%", 100*rate, reps)
	}
}
