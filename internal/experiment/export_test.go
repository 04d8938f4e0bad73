package experiment

import "elba/internal/spec"

// TrialKeyFor derives the cache key of one workload point of e on topo
// through the runner's own trialConfig → trialKey path.
func (r *Runner) TrialKeyFor(e *spec.Experiment, topo spec.Topology, users int, writeRatioPct float64) (TrialKey, error) {
	d, err := r.gen.GenerateOne(e, topo)
	if err != nil {
		return TrialKey{}, err
	}
	prof, err := r.profileFor(e)
	if err != nil {
		return TrialKey{}, err
	}
	return trialKey(e, d.Topology.String(), r.trialConfig(e, d, prof, users, writeRatioPct)), nil
}
