package experiment

import (
	"sync"

	"elba/internal/spec"
	"elba/internal/store"
)

// TrialKey identifies one trial as a pure function of its inputs: the
// trial-invariant canonical spec hash, the grid coordinates, and every
// runner knob that reaches the trial's random streams or its stored
// result. Two runs with equal keys produce byte-identical results —
// the determinism guarantee the parallel runner's property tests pin —
// which is what makes memoizing on this key safe across worker counts,
// engines, campaigns, and separate submissions.
type TrialKey struct {
	// SpecHash is spec.Experiment.TrialHash(): the canonical rendering
	// with the swept axes (topology list, users range, write-ratio
	// range) cleared, so overlapping sweeps of the same experiment
	// share keys at overlapping coordinates.
	SpecHash string
	// Topology and the workload point are the grid coordinates.
	Topology      string
	Users         int
	WriteRatioPct float64
	// Engine is the resolved trial engine ("", "des", or "fluid"); the
	// tag is recorded in the stored result, so it splits the key.
	Engine string
	// TimeScale shrinks the trial protocol and with it every measured
	// duration.
	TimeScale float64
	// Seed is an explicit per-trial seed override (0 = derived).
	Seed uint64
	// RootSeed is the runner's root seed mixed into derivations.
	RootSeed uint64
	// FaultProfile names the active fault profile ("" = none).
	FaultProfile string
	// TrialRetries is the per-point retry budget: retried attempts mix
	// fresh seeds and record an attempt count.
	TrialRetries int
	// TraceRate and TraceExemplars shape the persisted trace report.
	TraceRate      float64
	TraceExemplars int
	// SketchRT records whether the trial attaches a response-time sketch
	// to its stored result; the sketch changes the result bytes, so it
	// splits the key.
	SketchRT bool
}

// TrialCache memoizes trial results by TrialKey. Do returns the cached
// result for k when present; otherwise it runs compute, caches a
// successful result, and returns it. hit reports whether the result
// came from the cache (including from another in-flight computation of
// the same key). Errors are never cached: a failed run may be retried,
// and concurrent callers of a failing key each observe their own error.
//
// Implementations must be safe for concurrent use; the campaign
// subsystem additionally provides single-flight coalescing so a key is
// computed at most once however many campaigns request it at once.
type TrialCache interface {
	Do(k TrialKey, compute func() (store.Result, error)) (res store.Result, hit bool, err error)
}

// trialKey assembles the memo key for one workload point of e on topo,
// reading every knob from the trial's run options.
func trialKey(e *spec.Experiment, topo string, cfg TrialConfig) TrialKey {
	knobs := cfg.knobs()
	return TrialKey{
		SpecHash:       e.TrialHash(),
		Topology:       topo,
		Users:          cfg.Users,
		WriteRatioPct:  cfg.WriteRatioPct,
		Engine:         cfg.Engine,
		TimeScale:      knobs.timeScale(),
		Seed:           cfg.Seed,
		RootSeed:       knobs.Seed,
		FaultProfile:   cfg.FaultProfile,
		TrialRetries:   knobs.TrialRetries,
		TraceRate:      knobs.TraceRate,
		TraceExemplars: knobs.TraceExemplars,
		SketchRT:       knobs.SketchRT,
	}
}

// ephemeralTrialCache is the in-process fallback cache: a plain keyed
// map with no persistence and no cross-goroutine coalescing. The knee
// search installs one per sweep when the runner has no shared cache, so
// repeated populations (the bisection anchors after a collapsed
// bracket) reuse the recorded result instead of re-spending a trial —
// the successor of the old probe-level memoization, now keyed by the
// full trial coordinates.
type ephemeralTrialCache struct {
	mu sync.Mutex
	m  map[TrialKey]store.Result
}

func newEphemeralTrialCache() *ephemeralTrialCache {
	return &ephemeralTrialCache{m: map[TrialKey]store.Result{}}
}

func (c *ephemeralTrialCache) Do(k TrialKey, compute func() (store.Result, error)) (store.Result, bool, error) {
	c.mu.Lock()
	if res, ok := c.m[k]; ok {
		c.mu.Unlock()
		return res, true, nil
	}
	c.mu.Unlock()
	res, err := compute()
	if err != nil {
		return store.Result{}, false, err
	}
	c.mu.Lock()
	c.m[k] = res
	c.mu.Unlock()
	return res, false, nil
}
