package core

import "flag"

// Flags declares the run-knob flags the command-line tools share on fs:
// -timescale, -parallel, -trialparallel, -seed, -faults, -trialretries,
// -scaling and -scalingthreshold. Call the returned function after
// fs.Parse; it yields the parsed options, validated.
func Flags(fs *flag.FlagSet) func() (Options, error) {
	var o Options
	fs.Float64Var(&o.TimeScale, "timescale", 1.0, "shrink trial periods by this factor (1.0 = paper protocol)")
	fs.IntVar(&o.Parallel, "parallel", 1, "concurrent deployments per sweep")
	fs.IntVar(&o.TrialParallel, "trialparallel", 1, "concurrent trials per deployment's workload grid (results identical for any value)")
	fs.Uint64Var(&o.Seed, "seed", 0, "root seed mixed into every trial seed (0 = default derivation)")
	fs.StringVar(&o.FaultProfile, "faults", "", "inject a built-in fault profile: none, light, or heavy")
	fs.IntVar(&o.TrialRetries, "trialretries", 0, "re-run each failed workload point up to this many extra times")
	fs.StringVar(&o.ScalingEngine, "scaling", "", "override the trial engine: des, fluid, or auto (empty = per-spec scaling clause)")
	fs.IntVar(&o.ScalingThreshold, "scalingthreshold", 0, "population at which -scaling auto switches to the fluid engine")
	return func() (Options, error) {
		return o, o.Validate()
	}
}
