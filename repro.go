// Package repro is a reproduction of Baker, Shah, Rosenthal,
// Roussopoulos, Maniatis, Giuli & Bungale, "A Fresh Look at the
// Reliability of Long-term Digital Storage" (EuroSys 2006): the analytic
// MTTDL model for replicated archival storage under visible, latent, and
// correlated faults, together with the event-driven Monte Carlo simulator
// that validates it and the experiment harness that regenerates every
// figure and numeric claim in the paper.
//
// This file is the public facade: it re-exports the stable surface of the
// internal packages. The three layers are:
//
//   - The analytic model (Params and friends): closed forms, eqs 1-12.
//   - The simulator (SimConfig, NewRunner): physical trials of a replica
//     group to first data loss, with scrubbing, repair, correlation,
//     common-cause shocks, and §6.6 side effects.
//   - The experiments (Experiments, ExperimentByID): the paper's
//     §5.4-§6.6 analyses as runnable artifacts.
//
// Quickstart:
//
//	p := repro.PaperScrubbed()            // §5.4: mirrored Cheetahs, 3 scrubs/yr
//	years := repro.Years(p.MTTDL())       // ~5100 (paper's eq-10 view: 6128.7)
//	loss := p.LossProbability(repro.YearsToHours(50))
//
//	cfg, _ := repro.PaperSimConfig(3, 0.1) // same system, physical simulation
//	r, _ := repro.NewRunner(cfg)
//	est, _ := r.Estimate(repro.SimOptions{Trials: 1000, Seed: 1})
//
// Estimation is a streaming reduce with O(batch) memory: instead of a
// fixed budget, ask for a precision target and watch the run converge —
// the run stops at the first deterministic batch boundary where the
// interval is tight enough, so the answer depends only on (config, seed,
// target, cap, batch size), never on worker count:
//
//	est, _ = r.EstimateStream(ctx, repro.SimOptions{
//		Seed:           1,
//		Horizon:        repro.YearsToHours(50),
//		TargetRelWidth: 0.05,            // stop at 5% CI half-width
//		MaxTrials:      1_000_000,
//	}, func(p repro.SimProgress) {
//		log.Printf("%d/%d trials, rel width %.3f", p.Trials, p.Budget, p.RelWidth)
//	})
//
// When loss is genuinely rare — high replication, fast repair — even a
// precision-targeted run burns its budget waiting for losses. Setting
// Bias switches the run to importance sampling: fault hazards on the
// survivors are accelerated while any replica is faulty, each trial
// carries its likelihood-ratio weight, and the Horvitz–Thompson
// weighted estimate is unbiased at a fraction of the trials (see
// BENCH_rare.json; typically >10x fewer at equal CI width). AutoBias
// lets the analytic model pick the boost; biased runs require a
// Horizon and report Estimate.Bias and Estimate.EffectiveSamples:
//
//	est, _ = r.Estimate(repro.SimOptions{
//		Seed:    1,
//		Horizon: repro.YearsToHours(10),
//		Bias:    repro.AutoBias,         // or an explicit factor >= 1
//		Trials:  5000,
//	})
//
// # Non-stationary fault processes and trace replay
//
// The fault processes are constant-rate by default, as in the paper. A
// Hazard profile makes them non-stationary: the profile multiplies both
// channels' rates over each replica's age (burn-in, wear-out), sampled
// exactly by thinning, with per-trial determinism and bit-identical
// results at any parallelism intact. BathtubHazard composes the classic
// burn-in/useful-life/wear-out curve; NormalizeHazard rescales any
// profile to mean multiplier 1 over a horizon, so profiled and constant
// fleets compare at equal mean fault rates (experiment E17 shows the
// profile alone moves the loss estimate). docs/MODEL.md specifies the
// process semantics and determinism contract in full:
//
//	bath, _ := repro.BathtubHazard(8760, 4, 43800, 8) // 1y burn-in at 4x, wear from y5 at 8x
//	cfg.Hazard, _ = repro.NormalizeHazard(bath, repro.YearsToHours(10))
//
// A Runner can also record every trial's fault/detection/repair events
// as a versioned NDJSON trace (RecordTrace) and replay a recorded
// stream back through the DES (NewReplayRunner + ReplayEstimate):
// pinned replay reproduces the recorded outcomes exactly, while policy
// replay re-decides detection and repair from the current config — the
// counterfactual "what if this fault history had hit a better-run
// fleet". See examples/trace-replay and the internal/trace schema:
//
//	tr, est, _ := r.RecordTrace(repro.SimOptions{Trials: 5000, Seed: 1, Horizon: repro.YearsToHours(30)})
//	rr, _ := repro.NewReplayRunner(cfg, tr, true) // pinned
//	same, _ := rr.ReplayEstimate(repro.SimOptions{Seed: 9})
//
// Heterogeneous fleets (§6.1–§6.2): SimConfig.Specs gives each replica
// its own fault means, audit schedule, detection channel, repair policy,
// and tier label; FleetConfig builds such a config from named storage
// specs. The scalar SimConfig fields remain the uniform shorthand — a
// scalar-only config expands into identical per-replica specs and stays
// byte-identical to its pre-Specs behavior under the same seed.
//
//	fleet, _ := repro.FleetConfig(        // consumer + enterprise + tape
//		repro.DiskStorageSpec(repro.Barracuda200(), 12),
//		repro.DiskStorageSpec(repro.Cheetah146(), 12),
//		repro.OfflineStorageSpec(tapeShelf, 2e6, 4e5, 1),
//	)
//	r, _ = repro.NewRunner(fleet)
//
// # The ltsimd simulation service
//
// For repeated what-if queries, cmd/ltsimd serves the estimator as a
// long-running daemon: every request is canonicalized into a
// deterministic cache key (SimFingerprint — scalar shorthand and the
// expanded Specs form of the same fleet hash identically, and worker
// count is excluded), repeat queries replay the exact bytes of the first
// answer from a bounded LRU, and cache misses run on a sharded worker
// pool with per-job timeouts and graceful drain on shutdown.
//
//	ltsimd -addr :8356 &
//	curl -s -X POST localhost:8356/estimate -d '{"alpha":0.1,"trials":2000}'
//	curl -s -X POST localhost:8356/sweep \
//	    -d '{"requests":[{"replicas":2},{"replicas":3}]}'   # NDJSON stream
//	curl -s localhost:8356/experiments                      # registry index
//	curl -s localhost:8356/stats                            # hit rate, queue
//	ltsim -server http://localhost:8356 -alpha 0.1          # CLI as client
//
// Determinism makes the cache sound: the same seed, config, and trial
// count reproduce results exactly (regardless of parallelism), so a
// cache hit is bit-identical to recomputation. Adaptive requests
// ("target_rel_width", "max_trials") stop at deterministic batch
// boundaries and cache just as well — keyed by the canonical request
// including the stopping rule, not the realized trial count — and
// "progress": true streams NDJSON progress frames ahead of the final
// result. `ltsim -json` emits the same EstimateJSON encoding the daemon
// serves, so local and remote outputs are byte-comparable. Embed the
// service in another process with NewSimService.
//
// # Persistence and clustering
//
// With -cache-dir the daemon layers a persistent content-addressed
// store (OpenDiskStore) under the memory cache: answers survive
// restarts and replay bit-identically from disk (X-Ltsimd-Cache:
// disk), with corrupt files quarantined and recomputed. cmd/ltsimr
// fronts N such daemons as one endpoint, routing each fingerprint to
// the worker that owns it on a bounded-load consistent-hash ring —
// cluster cache warmth adds up instead of diluting — and coalescing
// duplicate in-flight keys cluster-wide:
//
//	ltsimd -addr :8361 -cache-dir /var/cache/ltsimd-a &
//	ltsimd -addr :8362 -cache-dir /var/cache/ltsimd-b &
//	ltsimr -addr :8355 -worker localhost:8361 -worker localhost:8362 &
//	curl -s -X POST localhost:8355/estimate -d '{"alpha":0.1,"trials":2000}'
//	curl -s localhost:8355/stats   # cluster-wide hit rate, per-node warmth
//	ltsim -server http://localhost:8355 -retries 5 -alpha 0.1  # rides restarts
//
// A dead worker is ejected from the ring (in-flight requests retry on
// its successor; determinism makes the answer bit-identical) and
// re-admitted with its key ownership — and warm disk tier — intact
// when its health probe recovers. Embed the router with
// NewClusterRouter.
//
// # Observability
//
// Every layer is instrumented through internal/telemetry, a
// stdlib-only metrics registry: GET /metrics serves Prometheus text
// (ltsimd_http_request_seconds by route/status/cache outcome, cache
// hit/miss/eviction and occupancy, per-shard queue depth, queue-wait
// and run-duration histograms, and the simulator's sim_trials_total /
// sim_adaptive_rel_width convergence trajectory). Every response
// carries an X-Ltsimd-Request ID that matches one NDJSON slog record
// on the daemon's stderr with the request's span timeline (received →
// resolved → queued → running → encoded → served). Sim counters record
// at batch boundaries on the reducer, never in the per-trial loop, so
// telemetry leaves estimates bit-identical.
//
//	ltsimd -addr :8356 -log-level debug -debug-addr 127.0.0.1:6060 &
//	curl -s localhost:8356/metrics | grep ltsimd_cache
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=5
//
// Embedders pass their own *slog.Logger and shared registry via
// SimServiceConfig's Logger and Metrics fields;
// Service.MetricsRegistry exposes the registry behind GET /metrics.
//
// # Scenario documents
//
// A Scenario (internal/scenario) is the declarative, versioned way to
// name a whole family of simulations: a base request plus named sweep
// axes — "grid" axes expand as a cartesian product, "zip" axes advance
// together — over replicas, scrubs/year, α, horizons, trial budgets,
// and named-tier substitutions. Every frontend expands the same
// document through the same deterministic path: `ltsim -scenario
// file.json` (locally or relayed to a daemon), the daemon's POST /sweep
// with {"scenario": ...} (server-side expansion, batch-deduplicated)
// and POST /scenarios/expand (dry run), and the experiment harness.
//
//	doc, _ := repro.ParseScenario([]byte(`{
//	  "v": 1,
//	  "base": {"horizon_years": 50, "trials": 200},
//	  "grid": [{"param": "replicas", "values": [2, 3]}],
//	  "zip":  [{"param": "alpha",           "values": [1, 0.1]},
//	           {"param": "scrubs_per_year", "values": [3, 12]}]
//	}`))
//	points, _ := repro.ExpandScenario(doc) // 4 points, deterministic order
//	for _, pt := range points {
//	    cfg, opt, _ := pt.Request.Build()
//	    key, _ := pt.Fingerprint() // ≡ the equivalent hand-built request's key
//	    _, _ = cfg, opt            // simulate, or let a daemon sweep it
//	    _ = key
//	}
//
// An expanded point fingerprints identically to the equivalent
// hand-built request, so server-side and client-side expansion share
// cache entries, and equivalent points within one document collide onto
// a single scheduled run.
package repro

import (
	"io"

	"repro/internal/aging"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/costs"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/replica"
	"repro/internal/report"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/scrub"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/threat"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---- Analytic model (§5) ----

// Params is the paper's model parameter set: MV, ML, MRV, MRL, MDL, and
// the correlation factor Alpha. See eqs 1-12.
type Params = model.Params

// Regime identifies which §5.4 approximation applies to a Params value.
type Regime = model.Regime

// Lever is a §6 strategy lever for sensitivity analysis.
type Lever = model.Lever

// Sensitivity reports the MTTDL payoff of improving one lever.
type Sensitivity = model.Sensitivity

// HoursPerYear converts the model's hour timescale to years (8760).
const HoursPerYear = model.HoursPerYear

// Years converts hours to years.
func Years(hours float64) float64 { return model.Years(hours) }

// YearsToHours converts years to hours.
func YearsToHours(years float64) float64 { return model.YearsToHours(years) }

// FaultProbability is eq 1: P(fault within t) for a memoryless process.
func FaultProbability(t, mttf float64) float64 { return model.FaultProbability(t, mttf) }

// PaperNoScrub returns the §5.4 no-auditing scenario (MTTDL 32.0 years).
func PaperNoScrub() Params { return model.PaperNoScrub() }

// PaperScrubbed returns the §5.4 scenario with 3 scrubs/year (eq-10 MTTDL
// 6128.7 years).
func PaperScrubbed() Params { return model.PaperScrubbed() }

// PaperCorrelated returns the §5.4 scenario with α = 0.1 (612.9 years).
func PaperCorrelated() Params { return model.PaperCorrelated() }

// PaperNegligent returns the §5.4 rare-but-unaudited latent scenario
// (eq-11 MTTDL 159.8 years).
func PaperNegligent() Params { return model.PaperNegligent() }

// ---- Monte Carlo simulator ----

// SimConfig describes a replicated storage system for simulation.
type SimConfig = sim.Config

// ReplicaSpec describes one replica of a heterogeneous fleet: its own
// fault means, audit schedule, detection channel, repair policy, and
// site/tier label. Zero/nil fields inherit the SimConfig scalars.
type ReplicaSpec = sim.ReplicaSpec

// SimOptions controls a Monte Carlo estimation run. TargetRelWidth and
// MaxTrials switch it to adaptive (precision-targeted) mode; BatchSize
// sets the streaming reduce's merge granularity; Bias enables
// importance-sampled failure biasing for rare-event runs.
type SimOptions = sim.Options

// AutoBias, as SimOptions.Bias, asks the analytic model to choose the
// failure-biasing factor from the configuration and horizon.
const AutoBias = sim.AutoBias

// SimProgress is a point-in-time snapshot of a streaming estimation run,
// delivered to Runner.EstimateStream's sink at batch boundaries.
type SimProgress = sim.Progress

// Estimate is the aggregated outcome of a Monte Carlo run.
type Estimate = sim.Estimate

// TrialResult is one trial's outcome.
type TrialResult = sim.TrialResult

// Trace is a fully-evented single trial (Figure 1 material).
type Trace = sim.Trace

// Runner executes Monte Carlo estimations.
type Runner = sim.Runner

// NewRunner validates a configuration and returns a Runner.
func NewRunner(cfg SimConfig) (*Runner, error) { return sim.NewRunner(cfg) }

// TraceTrial runs one fully-traced trial.
func TraceTrial(cfg SimConfig, seed uint64, horizon float64) (*Trace, error) {
	return sim.TraceTrial(cfg, seed, horizon)
}

// PaperSimConfig returns the simulator configuration for the §5.4 worked
// scenario with the given audits per year (0 = never) and correlation α.
func PaperSimConfig(scrubsPerYear, alpha float64) (SimConfig, error) {
	return sim.PaperConfig(scrubsPerYear, alpha)
}

// ---- Strategies and substrates ----

// ScrubStrategy schedules replica audits (§6.2).
type ScrubStrategy = scrub.Strategy

// PeriodicScrub returns a periodic audit schedule with n audits/year,
// staggered by offset hours.
func PeriodicScrub(perYear, offset float64) (scrub.Periodic, error) {
	return scrub.NewPeriodic(perYear, offset)
}

// PoissonScrub returns a random audit schedule averaging n audits/year.
func PoissonScrub(perYear float64) (scrub.Poisson, error) { return scrub.NewPoisson(perYear) }

// OnAccessDetection returns the §4.1 user-access detection channel.
func OnAccessDetection(ratePerHour, coverage float64) (scrub.OnAccess, error) {
	return scrub.NewOnAccess(ratePerHour, coverage)
}

// NoScrub never audits.
func NoScrub() scrub.Strategy { return scrub.None{} }

// RepairPolicy describes fault recovery (§6.3).
type RepairPolicy = repair.Policy

// AutomatedRepair returns a hot-spare policy with fixed repair times and
// an optional §6.6 bug probability.
func AutomatedRepair(mrv, mrl, bugProb float64) (RepairPolicy, error) {
	return repair.Automated(mrv, mrl, bugProb)
}

// OperatorRepair returns a human-in-the-loop policy: lognormal dispatch
// delay plus exponential repairs.
func OperatorRepair(dispatchMean, dispatchCV, mrv, mrl float64) (RepairPolicy, error) {
	return repair.OperatorAssisted(dispatchMean, dispatchCV, mrv, mrl)
}

// Correlation models inter-replica fault acceleration (§5.3).
type Correlation = faults.Correlation

// IndependentReplicas returns the α = 1 correlation model.
func IndependentReplicas() Correlation { return faults.Independent{} }

// AlphaCorrelation returns the paper's multiplicative-α correlation.
func AlphaCorrelation(alpha float64) (Correlation, error) {
	return faults.NewAlphaCorrelation(alpha)
}

// Shock is a common-cause fault source hitting several replicas at once.
type Shock = faults.Shock

// ---- Non-stationary hazard profiles ----

// Hazard is a time-varying multiplier on a replica's fault rates: set
// SimConfig.Hazard (or ReplicaSpec.Hazard) to make the fault processes
// non-stationary. See docs/MODEL.md for the sampling and determinism
// contract.
type Hazard = faults.Hazard

// ConstantHazard scales both fault channels by a fixed factor.
type ConstantHazard = faults.ConstantHazard

// WeibullHazard is the Weibull (power-law) hazard shape with shape >= 1
// — the standard wear-out model.
type WeibullHazard = faults.WeibullHazard

// PiecewiseHazard is a step-function profile: constant factors over
// consecutive age bands.
type PiecewiseHazard = faults.PiecewiseHazard

// NewConstantHazard validates and returns a constant profile.
func NewConstantHazard(factor float64) (ConstantHazard, error) {
	return faults.NewConstantHazard(factor)
}

// NewWeibullHazard validates and returns a Weibull profile.
func NewWeibullHazard(shape, scaleHours float64) (WeibullHazard, error) {
	return faults.NewWeibullHazard(shape, scaleHours)
}

// NewPiecewiseHazard validates and returns a step-function profile.
func NewPiecewiseHazard(boundsHours, factors []float64) (PiecewiseHazard, error) {
	return faults.NewPiecewiseHazard(boundsHours, factors)
}

// BathtubHazard composes the classic bathtub curve as a piecewise
// profile: elevated burn-in, unit useful life, elevated wear-out.
func BathtubHazard(burnInHours, burnInFactor, wearOnsetHours, wearFactor float64) (PiecewiseHazard, error) {
	return aging.Bathtub(burnInHours, burnInFactor, wearOnsetHours, wearFactor)
}

// WearoutHazard is a pure wear-out (Weibull) profile parameterized by
// characteristic life.
func WearoutHazard(shape, characteristicLifeHours float64) (WeibullHazard, error) {
	return aging.Wearout(shape, characteristicLifeHours)
}

// NormalizeHazard rescales a profile so its mean multiplier over the
// horizon is exactly 1 — profiled and constant fleets then carry equal
// mean fault rates, isolating the effect of the time profile itself.
func NormalizeHazard(h Hazard, horizonHours float64) (faults.ScaledHazard, error) {
	return faults.Normalize(h, horizonHours)
}

// ---- Fault traces (record and replay) ----

// FaultTrace is a recorded fault/repair/access event stream over a
// trial set, serializable as versioned NDJSON (see internal/trace for
// the schema and examples/trace-replay for a worked example). Distinct
// from Trace, the single-trial diagnostic event log.
type FaultTrace = trace.Trace

// FaultTraceHeader is a trace's header line: schema version, fleet
// width, trial count, and censoring horizon.
type FaultTraceHeader = trace.Header

// FaultTraceEvent is one recorded event.
type FaultTraceEvent = trace.Event

// ParseFaultTrace decodes and validates an NDJSON trace stream.
func ParseFaultTrace(r io.Reader) (*FaultTrace, error) { return trace.Parse(r) }

// NewReplayRunner returns a Runner that replays the recorded trace
// through cfg's fleet instead of sampling fresh faults. With pinRepairs
// true the recorded repair completions are honored (a replay reproduces
// the recorded outcomes exactly); false re-decides detection and repair
// from cfg — the counterfactual replay. Use Runner.ReplayEstimate to
// run it; Runner.RecordTrace on an ordinary runner produces traces.
func NewReplayRunner(cfg SimConfig, tr *FaultTrace, pinRepairs bool) (*Runner, error) {
	return sim.NewReplayRunner(cfg, tr, pinRepairs)
}

// FaultClass distinguishes visible from latent faults (§5.1).
type FaultClass = faults.Type

// The two fault classes.
const (
	FaultVisible = faults.Visible
	FaultLatent  = faults.Latent
)

// Topology places replicas along the §6.5 independence dimensions.
type Topology = replica.Topology

// Dimension names one §6.5 independence axis.
type Dimension = replica.Dimension

// The §6.5 independence dimensions.
const (
	Geography      = replica.Geography
	Administration = replica.Administration
	HardwareBatch  = replica.HardwareBatch
	Software       = replica.Software
	Organization   = replica.Organization
)

// ShockRates configures per-dimension shared-component failure behaviour
// for Topology.CompileShocks.
type ShockRates = replica.ShockRates

// ShockSpec is one dimension's failure behaviour.
type ShockSpec = replica.ShockSpec

// Colocated places r replicas in one machine room sharing every §6.5
// dimension — the cautionary baseline.
func Colocated(r int) Topology { return replica.Colocated(r) }

// GeoDistributed places r replicas in distinct locations but under one
// administration, procurement, software stack, and organization.
func GeoDistributed(r int) Topology { return replica.GeoDistributed(r) }

// FullyIndependent places r replicas differing on every §6.5 dimension —
// the British Library posture.
func FullyIndependent(r int) Topology { return replica.FullyIndependent(r) }

// ---- Storage economics (§6.1-§6.2, §4.3) ----

// DriveSpec is a disk datasheet (§6.1).
type DriveSpec = storage.DriveSpec

// Barracuda200 and Cheetah146 are the paper's §6.1 drives.
func Barracuda200() DriveSpec { return storage.Barracuda200() }
func Cheetah146() DriveSpec   { return storage.Cheetah146() }

// Media describes one replica's storage medium for audit and repair
// economics (§6.2–§6.4).
type Media = storage.Media

// TapeShelf returns an offline tape medium with §6.2's cost structure.
func TapeShelf(capacityGB, readMBps, retrieveHours, handlingProb, wearProb, costPerCycle float64) Media {
	return storage.TapeShelf(capacityGB, readMBps, retrieveHours, handlingProb, wearProb, costPerCycle)
}

// StorageSpec names one replica's storage substrate (drive or medium
// plus audit/repair numbers), ready to bridge into a ReplicaSpec.
type StorageSpec = storage.Spec

// DiskStorageSpec derives a StorageSpec from a §6.1 drive datasheet.
func DiskStorageSpec(d DriveSpec, scrubsPerYear float64) StorageSpec {
	return storage.DiskSpec(d, scrubsPerYear)
}

// OfflineStorageSpec derives a StorageSpec from an offline medium; the
// caller supplies the fault means the datasheet cannot predict.
func OfflineStorageSpec(m Media, visibleMean, latentMean, auditsPerYear float64) StorageSpec {
	return storage.OfflineSpec(m, visibleMean, latentMean, auditsPerYear)
}

// FleetConfig assembles a heterogeneous-fleet SimConfig from named
// storage specs: one replica per spec, independent replicas by default.
func FleetConfig(specs ...StorageSpec) (SimConfig, error) {
	return storage.FleetConfig(specs...)
}

// StorageTierSpec resolves a named storage tier ("consumer",
// "enterprise", "tape") into a StorageSpec at the given audit frequency
// — the shared vocabulary behind `ltsim -replica consumer` and the
// daemon's {"tier": "consumer"} fleet entries.
func StorageTierSpec(name string, scrubsPerYear float64) (StorageSpec, bool) {
	return storage.TierSpec(name, scrubsPerYear)
}

// ---- Simulation service (cmd/ltsimd) ----

// SimCanonical serializes a validated SimConfig + SimOptions pair into
// its deterministic canonical string: scalar shorthand and the expanded
// Specs form of the same fleet serialize identically, and fields that do
// not shape results (worker count) are excluded.
func SimCanonical(cfg SimConfig, opt SimOptions) (string, error) {
	return sim.Canonical(cfg, opt)
}

// SimFingerprint returns the hex SHA-256 of SimCanonical — the
// content-addressed cache key the ltsimd daemon uses.
func SimFingerprint(cfg SimConfig, opt SimOptions) (string, error) {
	return sim.Fingerprint(cfg, opt)
}

// SimService is the embeddable simulation service behind cmd/ltsimd:
// canonical request hashing, a bounded content-addressed result cache,
// and a sharded worker-pool scheduler, exposed over HTTP.
type SimService = service.Service

// SimServiceConfig sizes a SimService.
type SimServiceConfig = service.Config

// NewSimService returns a started service; serve its Handler and stop it
// with Shutdown.
func NewSimService(cfg SimServiceConfig) *SimService { return service.New(cfg) }

// ServiceEstimateRequest is one estimation query on the daemon's wire:
// the uniform-fleet shorthand or an explicit fleet, plus Monte Carlo
// options, with the same defaults as cmd/ltsim's flags.
type ServiceEstimateRequest = service.EstimateRequest

// ServiceFleetEntry is one replica of a fleet on the wire: a named tier
// or explicit StorageSpec numbers.
type ServiceFleetEntry = service.FleetEntry

// ServiceHazardSpec is a non-stationary fault profile on the wire: a
// named kind (constant, weibull, bathtub, piecewise) plus that kind's
// parameters, with optional mean-rate normalization. Set it on a
// request ("hazard") or a fleet entry, or sweep its fields through
// scenario hazard.* axes.
type ServiceHazardSpec = service.HazardSpec

// ---- Persistent result store (internal/store) ----

// ResultStore is the persistent result tier a SimService layers under
// its in-memory cache (SimServiceConfig.Store): Get/Put by fingerprint,
// whole-value, crash-safe.
type ResultStore = store.Store

// DiskResultStore is the disk-backed ResultStore behind ltsimd's
// -cache-dir: one CRC-framed file per fingerprint, atomic writes, a
// startup scan, LRU-by-mtime GC over a byte budget, and quarantine of
// corrupt entries. A restarted service replays bit-identical bytes for
// everything it ever answered.
type DiskResultStore = store.DiskStore

// ResultStoreStats is a ResultStore counter snapshot (the "store"
// section of the daemon's /stats).
type ResultStoreStats = store.Stats

// OpenDiskStore opens (creating if needed) a disk store rooted at dir,
// GC-bounded to maxBytes of entry files (0 = unbounded).
func OpenDiskStore(dir string, maxBytes int64) (*DiskResultStore, error) {
	return store.OpenDisk(dir, maxBytes)
}

// ---- Cluster router (internal/router, cmd/ltsimr) ----

// ClusterRouter is the stateless front of an ltsimd cluster (the
// embeddable service behind cmd/ltsimr): it consistent-hashes request
// fingerprints across workers on a bounded-load ring, coalesces
// duplicate in-flight keys cluster-wide, fans scenario sweeps out with
// per-point node attribution, and survives worker death by ejection +
// successor retry with probe-driven re-admission.
type ClusterRouter = router.Router

// ClusterRouterConfig sizes a ClusterRouter; Workers is the only
// required field.
type ClusterRouterConfig = router.Config

// ClusterWorker names one ltsimd worker by base URL.
type ClusterWorker = router.Worker

// NewClusterRouter returns a started router (health prober running);
// serve its Handler and stop it with Close.
func NewClusterRouter(cfg ClusterRouterConfig) (*ClusterRouter, error) {
	return router.New(cfg)
}

// ---- Scenario documents (internal/scenario) ----

// Scenario is a versioned declarative scenario document: a base
// request plus named grid (cartesian) and zip (paired) sweep axes. See
// the package comment's "Scenario documents" section and the
// internal/scenario package comment for the full v1 schema.
type Scenario = scenario.Document

// ScenarioAxis sweeps one named parameter of a Scenario (by "values",
// or by "tiers" for named-tier substitution into the base fleet).
type ScenarioAxis = scenario.Axis

// ScenarioPoint is one expanded point: its deterministic expansion
// index, the axis coordinates that produced it, and the fully-applied
// request.
type ScenarioPoint = scenario.Point

// ScenarioCoord records one axis coordinate of an expanded point.
type ScenarioCoord = scenario.Coord

// ScenarioVersion is the scenario schema version this build speaks.
const ScenarioVersion = scenario.Version

// ParseScenario decodes and validates a scenario document, rejecting
// unknown fields.
func ParseScenario(data []byte) (Scenario, error) { return scenario.Parse(data) }

// ExpandScenario materializes every point of a scenario document in
// its deterministic expansion order (grid odometer, first axis slowest,
// zip tuple innermost). Each point fingerprints identically to the
// equivalent hand-built request.
func ExpandScenario(doc Scenario) ([]ScenarioPoint, error) { return scenario.Expand(doc) }

// EstimateJSON is the canonical machine-readable encoding of an
// Estimate, shared by `ltsim -json` and the daemon (so their outputs are
// byte-comparable).
type EstimateJSON = report.EstimateJSON

// NewEstimateJSON converts an estimate to its wire encoding.
func NewEstimateJSON(est Estimate, horizonHours float64) EstimateJSON {
	return report.NewEstimateJSON(est, horizonHours)
}

// CostPlan describes a preservation system for costing.
type CostPlan = costs.Plan

// CostBreakdown is a mission-total cost by category.
type CostBreakdown = costs.Breakdown

// FrontierPoint pairs a plan's cost with its modeled reliability.
type FrontierPoint = costs.FrontierPoint

// EvaluatePlan combines a plan with model parameters into a frontier
// point.
func EvaluatePlan(label string, p CostPlan, params Params) (FrontierPoint, error) {
	return costs.Evaluate(label, p, params)
}

// Archive describes an archival collection's size and traffic (§2).
type Archive = workload.Archive

// PhotoService returns the §2 consumer-photo-scale archive preset.
func PhotoService() Archive { return workload.PhotoService() }

// InstitutionalArchive returns a library-scale archive preset.
func InstitutionalArchive() Archive { return workload.InstitutionalArchive() }

// ---- High-level assessment (internal/core) ----

// System describes one candidate preservation deployment for one-call
// assessment: drives, placement, audit schedule, economics.
type System = core.System

// SystemEconomics carries the §4.3 cost streams for a System.
type SystemEconomics = core.Economics

// Assessment is everything the library can say about a System.
type Assessment = core.Assessment

// AssessOptions scales the Monte Carlo side of an assessment.
type AssessOptions = core.AssessOptions

// CompareSystems assesses several systems under the same options.
func CompareSystems(systems []System, opt AssessOptions) ([]*Assessment, error) {
	return core.Compare(systems, opt)
}

// Threat is one §3 threat category.
type Threat = threat.Threat

// ThreatCatalogue returns the §3 threats in the paper's order.
func ThreatCatalogue() []Threat { return threat.All() }

// ---- Baselines (§7 comparators) ----

// PattersonRAID is the 1988 RAID MTTDL model.
type PattersonRAID = baseline.PattersonRAID

// ChenRAID is the 1994 extension with crashes and rebuild bit errors.
type ChenRAID = baseline.ChenRAID

// MarkovErasure is the m-of-n birth-death model behind the Weatherspoon
// erasure-vs-replication comparison.
type MarkovErasure = baseline.MarkovErasure

// ---- Experiments ----

// Experiment is one registered reproduction target (DESIGN.md §3).
type Experiment = experiments.Experiment

// ExperimentResult is a rendered experiment outcome.
type ExperimentResult = experiments.Result

// ExperimentConfig scales an experiment run.
type ExperimentConfig = experiments.RunConfig

// Experiments returns every registered experiment in DESIGN.md order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds one experiment (e.g. "E2").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }
