package experiment

import (
	"fmt"

	"elba/internal/cim"
	"elba/internal/fault"
	"elba/internal/spec"
	"elba/internal/store"
)

// Options are the run knobs: every setting that shapes how experiments
// execute. They are declared here once; the Runner embeds them, the
// characterizer's options are an alias of them, and each trial's config
// refers to them rather than copying them. Every field either reaches the
// trial cache key or is listed key-neutral, with its reason, in the
// key-coverage test.
type Options struct {
	// TimeScale shrinks every trial's periods (1.0 = the paper's full
	// protocol; zero or negative means 1.0).
	TimeScale float64
	// Parallel runs this many deployments of a sweep concurrently
	// (default 1 = sequential). Cluster allocation is serialized, and the
	// effective parallelism is capped so concurrent topologies always fit
	// the platform's node count. OnTrial may then fire from multiple
	// goroutines.
	Parallel int
	// TrialParallel runs this many trials of one deployment's workload
	// grid concurrently (default 1), and, for single-point runs, this many
	// trial replicas. Trial seeds derive from coordinates alone and
	// results commit in grid order, so stored results are bit-identical
	// for every value.
	TrialParallel int
	// Seed, when non-zero, is a root seed mixed into every derived trial
	// seed together with the experiment name. Zero keeps the historical
	// per-experiment derivation.
	Seed uint64
	// FaultProfile names a built-in fault profile ("none", "light",
	// "heavy") injected into every deployment and trial, overriding the
	// experiment's own `profile` declaration. Empty defers to the TBL.
	// Plans derive purely from (Seed, coordinates).
	FaultProfile string
	// TrialRetries re-runs a workload point that fails to complete up to
	// this many extra times, each with a fresh attempt-mixed seed; the
	// last attempt's result is kept (0 = no retries).
	TrialRetries int
	// TraceRate head-samples this fraction of every trial's measured
	// requests into span traces (0 = tracing off). The sampling stream
	// derives from the trial seed under its own domain label, so tracing
	// never perturbs what the trial measures.
	TraceRate float64
	// TraceExemplars is the number of slowest traces each traced trial
	// persists in full (used only when TraceRate > 0).
	TraceExemplars int
	// ScalingEngine overrides every experiment's scaling clause: "des",
	// "fluid", or "auto" (empty = defer to the TBL declarations).
	ScalingEngine string
	// ScalingThreshold is the population at which ScalingEngine "auto"
	// switches trials to the fluid approximation.
	ScalingThreshold int
	// SketchRT attaches a mergeable response-time t-digest to every DES
	// trial's stored result (Result.RTSketch). Off by default: sketch-free
	// results serialize byte-identically to historical output.
	SketchRT bool
	// TrialCache, when set, memoizes every workload point by its
	// content-addressed TrialKey, so overlapping sweeps — within one run or
	// across runs sharing the cache — reuse prior results byte-for-byte
	// instead of re-simulating. Nil runs every point.
	TrialCache TrialCache
	// Catalog is the CIM resource model. The characterizer loads the
	// built-in one when nil.
	Catalog *cim.Catalog
	// Store receives results; the characterizer creates a fresh one when
	// nil.
	Store *store.Store
	// OnTrial observes each stored result as it lands.
	OnTrial func(store.Result)
}

// Validate checks the knobs that name something: the scaling engine, the
// scaling threshold and the fault profile. Errors name the option and
// its command-line flag.
func (o *Options) Validate() error {
	switch o.ScalingEngine {
	case "", EngineDES, EngineFluid, "auto":
	default:
		return fmt.Errorf("ScalingEngine (-scaling) must be des, fluid, or auto (got %q)", o.ScalingEngine)
	}
	if o.ScalingThreshold < 0 {
		return fmt.Errorf("ScalingThreshold (-scalingthreshold) must be non-negative (got %d)", o.ScalingThreshold)
	}
	if _, err := resolveProfile(o.FaultProfile); err != nil {
		return fmt.Errorf("FaultProfile (-faults): %w", err)
	}
	return nil
}

// timeScale is TimeScale with its default applied.
func (o *Options) timeScale() float64 {
	if o.TimeScale <= 0 {
		return 1.0
	}
	return o.TimeScale
}

// resolveProfile looks up a fault profile by name; "" is no profile.
func resolveProfile(name string) (fault.Profile, error) {
	if name == "" {
		return fault.Profile{}, nil
	}
	p, ok := fault.ProfileByName(name)
	if !ok {
		return fault.Profile{}, fmt.Errorf("unknown fault profile %q (have %v)", name, fault.Profiles())
	}
	return p, nil
}

// profileFor resolves the fault profile for an experiment: the FaultProfile
// knob wins, else the experiment's own TBL declaration, else none.
func (o *Options) profileFor(e *spec.Experiment) (fault.Profile, error) {
	if o.FaultProfile != "" {
		return resolveProfile(o.FaultProfile)
	}
	return resolveProfile(e.FaultProfile)
}

// engineFor resolves the trial engine for a workload point: the
// ScalingEngine knob wins over the experiment's scaling clause; both
// absent keeps the historical untagged DES path.
func (o *Options) engineFor(e *spec.Experiment, users int) string {
	if o.ScalingEngine != "" {
		return spec.Scaling{ThresholdUsers: o.ScalingThreshold, Engine: o.ScalingEngine}.EngineFor(users)
	}
	return e.Scaling.EngineFor(users)
}
