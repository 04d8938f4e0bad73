package experiment

import (
	"fmt"

	"elba/internal/bench"
	"elba/internal/cluster"
	"elba/internal/deploy"
	"elba/internal/expr"
	"elba/internal/fault"
	"elba/internal/metrics"
	"elba/internal/monitor"
	"elba/internal/mulini"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
)

// FailureErrorRate is the error fraction above which a trial is recorded
// as failed-to-complete, producing the paper's Table 7 missing squares.
const FailureErrorRate = 0.05

// Trial engines. The empty string selects the historical DES path and
// records no engine in the stored result.
const (
	// EngineDES is the exact discrete-event simulation: one Markov
	// emulator per user session.
	EngineDES = "des"
	// EngineFluid is the aggregated user-class flow approximation, whose
	// cost is independent of the population.
	EngineFluid = "fluid"
)

// TrialConfig parameterizes one trial run: the values that differ from
// trial to trial, plus a reference to the run knobs every trial of a run
// shares. The runner builds it in exactly one place (Runner.trialConfig).
type TrialConfig struct {
	// Users is the concurrent-user population for this trial.
	Users int
	// Engine selects the trial engine: EngineDES, EngineFluid, or ""
	// (the historical DES path, recorded without an engine tag).
	Engine string
	// WriteRatioPct is the database write ratio in percent.
	WriteRatioPct float64
	// Seed overrides the derived deterministic seed when non-zero.
	Seed uint64
	// FaultPlan is the in-trial fault schedule to inject (nil = none).
	// Event times are relative to the run period and scale with the trial.
	FaultPlan []fault.Event
	// FaultProfile names the profile that produced FaultPlan; it is
	// recorded in the stored result ("" when no profile is active).
	FaultProfile string
	// Attempt is the retry-attempt index for this workload point (0 = the
	// first try). Non-zero attempts are mixed into the derived seed so a
	// retried trial draws a fresh random universe; attempt 0 preserves the
	// historical derivation bit-for-bit.
	Attempt int
	// RTObserver, when set, observes every measured successful response
	// time (seconds, completion order) as the trial runs. Ignored by the
	// fluid engine.
	RTObserver metrics.Observer
	// Knobs are the run options the trial executes under: time scale,
	// root seed, tracing and sketch settings. Nil means the zero Options.
	Knobs *Options
}

// noKnobs stands in for a config without run options.
var noKnobs Options

// knobs returns the trial's run options, never nil.
func (cfg TrialConfig) knobs() *Options {
	if cfg.Knobs == nil {
		return &noKnobs
	}
	return cfg.Knobs
}

// seed is the trial's random seed: the explicit override, or one derived
// from the experiment seed, the coordinates, the root seed and the
// attempt index.
func (cfg TrialConfig) seed(e *spec.Experiment, d *mulini.Deployment) uint64 {
	if cfg.Seed != 0 {
		return cfg.Seed
	}
	seed := deriveSeed(e.Seed, d.Topology.String(), cfg.Users, cfg.WriteRatioPct)
	if root := cfg.knobs().Seed; root != 0 {
		seed = mixRootSeed(seed, root, e.Name)
	}
	return mixAttempt(seed, cfg.Attempt)
}

// phases is the trial protocol's timing under time scale ts: warm-up,
// measured run and cool-down lengths, and the user ramp-up (half the
// warm-up, at most 10 s).
func phases(e *spec.Experiment, ts float64) (warm, run, cool, rampUp float64) {
	warm = e.Trial.WarmupSec * ts
	run = e.Trial.RunSec * ts
	cool = e.Trial.CooldownSec * ts
	rampUp = min(warm/2, 10)
	return warm, run, cool, rampUp
}

// TrialOutcome carries a trial's stored result plus the raw monitoring
// session for figure rendering.
type TrialOutcome struct {
	Result  store.Result
	Monitor *monitor.Monitor
	// RunWindow is the [start, end) simulated-time window of the
	// measurement period, for windowed series queries.
	RunWindow [2]float64
	// FromCache marks a result served from the runner's trial cache: no
	// simulation ran, so Monitor is nil and RunWindow is zero, but
	// Result is byte-identical to what the trial would have measured.
	FromCache bool
}

// memory profile per tier: idle resident set and per-request working set.
var memProfile = map[string]struct{ base, perJob float64 }{
	"web":    {80, 0.2},
	"app":    {420, 0.5},
	"db":     {220, 0.4},
	"client": {120, 0.1},
}

// tierNames maps expr tier indices to TBL tier names.
var tierNames = [expr.NumTiers]string{"web", "app", "db"}

// engine is a trial's model of the testbed. RunTrial drives every engine
// through the same observation protocol — start the population, warm up,
// measure the run window by window, cool down, collect — so the engines
// differ only in how they advance time and where their counters come
// from. Tier indices are the expr package's.
type engine interface {
	// start launches the user population at time zero.
	start()
	// advance runs the model to kernel time t.
	advance(t float64)
	// beginRun opens the measured run, and its first observation window,
	// at the current time.
	beginRun()
	// endRun closes the measured run the protocol scheduled to end at t.
	endRun(t float64)
	// counters is a deployed role's counter source for the monitor; nil
	// for roles the engine does not model (the client).
	counters(role, tier string, node *cluster.Node) monitor.Counters
	// tierBusy reads a tier's cumulative busy-seconds per resource and the
	// capacity a busy window divides by to give utilization.
	tierBusy(tier int) (busy, capacity [expr.NumResources]float64)
	// window closes the observation window opened by beginRun or the
	// previous call, and opens the next.
	window() windowStats
	// setUsers retargets the session population.
	setUsers(n int)
	// fault starts ev at seconds from now and ends it dur seconds later.
	fault(ev fault.Event, at, dur float64)
	// Replicas reports a tier's active node count.
	Replicas(tier int) int
	// Scale moves a tier's active count toward target and returns the
	// count reached: actuation can fall short when the spare pool is
	// exhausted or the tier is at its one-node floor.
	Scale(tier, target int) int
	// fill writes the measured run's request and response-time fields.
	fill(res *store.Result)
}

// windowStats is one closed observation window as an engine measured it.
type windowStats struct {
	end, dur float64    // closing time on the engine's clock; length
	served   float64    // goodput: successful, in-deadline completions
	q        [3]float64 // p50/p90/p99 response time in seconds
	measured bool       // q holds the window's quantiles
}

// RunTrial executes one trial of experiment e against a deployed
// placement. The simulated application is constructed from the placement's
// actual nodes: CPU speeds come from the allocated hardware and the
// session capacity from the deployed app-server packages, so a wrong
// deployment shows up as a wrong measurement.
func RunTrial(e *spec.Experiment, d *mulini.Deployment, p *deploy.Placement, cfg TrialConfig) (*TrialOutcome, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("experiment: trial needs at least one user")
	}
	newEngine := newDESEngine
	switch cfg.Engine {
	case "", EngineDES:
	case EngineFluid:
		newEngine = newFluidEngine
	default:
		return nil, fmt.Errorf("experiment: unknown trial engine %q", cfg.Engine)
	}
	ts := cfg.knobs().timeScale()
	model, err := Model(e, cfg.WriteRatioPct)
	if err != nil {
		return nil, err
	}
	warm, run, cool, rampUp := phases(e, ts)
	maxSessions := sessionCapacity(d, p)

	// The kernel is the trial clock the monitor samples on; only the DES
	// draws from its random stream.
	seed := cfg.seed(e, d)
	k := sim.NewKernel(seed)
	eng, err := newEngine(trialSetup{k: k, seed: seed, e: e, d: d, p: p, cfg: cfg,
		model: model, rampUp: rampUp, maxSessions: maxSessions})
	if err != nil {
		return nil, err
	}

	probes, hostOf := buildProbes(d, p, eng, model)
	mon, err := monitor.New(k, monitor.Config{
		IntervalSec: e.Monitor.IntervalSec * ts,
		Metrics:     e.Monitor.Metrics,
	}, probes)
	if err != nil {
		return nil, err
	}

	// Schedule fault injection: outages are specified relative to the run
	// period and scale with the trial, like everything else. Faults with a
	// when-guard are armed by the expression hooks at the observation
	// cadence instead of firing on the clock.
	for _, f := range e.Faults {
		ev, err := specFaultEvent(f)
		if err != nil {
			return nil, err
		}
		if ev.Kind != fault.ErrorBurst && hostOf[f.Role] == "" {
			return nil, fmt.Errorf("experiment: fault names role %s, absent from topology %s",
				f.Role, d.Topology)
		}
		if f.WhenExpr != "" {
			continue
		}
		eng.fault(ev, warm+ev.AtSec*ts, ev.DurationSec*ts)
	}
	// Profile-derived fault plan: same mechanism, derived coordinates.
	// Roles absent from this topology are skipped silently — the plan is
	// drawn from the deployment's own role list, so that only happens for
	// hand-built configs.
	for _, ev := range cfg.FaultPlan {
		eng.fault(ev, warm+ev.AtSec*ts, ev.DurationSec*ts)
	}

	// Expression hooks: nil for expression-free specs, which therefore run
	// the measured period in one advance: the exact historical event stream.
	hooks, err := newExprHooks(e, warm, run, ts, e.Monitor.IntervalSec*ts, maxSessions)
	if err != nil {
		return nil, err
	}

	eng.start()
	mon.Start()
	eng.advance(warm)
	eng.beginRun()
	runStart := k.Now()
	if hooks != nil {
		hooks.runWindows(eng)
	} else {
		eng.advance(warm + run)
	}
	eng.endRun(warm + run)
	runEnd := k.Now()
	eng.advance(warm + run + cool)
	mon.Stop()

	res := newResult(e, d, mon, cfg, runEnd-runStart)
	eng.fill(&res)
	if len(cfg.FaultPlan) > 0 {
		res.FaultEvents = make([]string, len(cfg.FaultPlan))
		for i, fe := range cfg.FaultPlan {
			res.FaultEvents[i] = fe.String()
		}
	}
	collectUtilization(&res, d, mon, hostOf, runStart, runEnd)
	judge(&res)
	res.DeployRetries = p.Retries
	res.DeploySeconds = p.DeploySec
	if hooks != nil {
		hooks.record(&res)
	}
	return &TrialOutcome{Result: res, Monitor: mon, RunWindow: [2]float64{runStart, runEnd}}, nil
}

// trialSetup is what an engine is built from: the trial clock and seed,
// the experiment and its deployment, the trial's configuration and
// workload model, the ramp-up and the deployment's session capacity.
type trialSetup struct {
	k           *sim.Kernel
	seed        uint64
	e           *spec.Experiment
	d           *mulini.Deployment
	p           *deploy.Placement
	cfg         TrialConfig
	model       *bench.Profile
	rampUp      float64
	maxSessions int
}

// specFaultEvent converts a TBL fault declaration to a fault event.
func specFaultEvent(f spec.Fault) (fault.Event, error) {
	kind := fault.Crash
	if f.Kind != "" {
		k, ok := fault.KindByName(f.Kind)
		if !ok {
			return fault.Event{}, fmt.Errorf("experiment: unknown fault kind %q", f.Kind)
		}
		kind = k
	}
	return fault.Event{Kind: kind, Role: f.Role, AtSec: f.AtSec,
		DurationSec: f.DurationSec, Factor: f.Factor}, nil
}

// resourceRates is the one gating rule for a node's disk and network
// legs: a tier that declares disk demand gets a disk at the node's
// effective spindle speed, and one that declares payload bytes gets a
// link when the node's pool declares a bandwidth. Zero means no leg.
func resourceRates(td spec.ResourceDemand, node *cluster.Node) (disk, net float64) {
	if td.DiskSec > 0 {
		if disk = node.EffectiveDiskSpeed(); disk <= 0 {
			disk = node.DiskSpeed()
		}
	}
	if td.NetBytes > 0 {
		net = node.NetBytesPerSec()
	}
	return disk, net
}

// sessionCapacity reports the deployment's total session capacity: each
// app-server instance holds MaxClients persistent connections, and
// multi-CPU nodes run one instance per CPU (the Warp blades run two
// WebLogic instances; the single-CPU Emulab nodes run one JOnAS each,
// giving the paper's 700-user limit for the 1-2-1 configuration).
func sessionCapacity(d *mulini.Deployment, p *deploy.Placement) int {
	maxSessions := 0
	for _, role := range d.Roles("app") {
		a, ok := d.Find(role)
		if !ok || len(a.Packages) == 0 {
			continue
		}
		node, ok := p.Node(role)
		if !ok {
			continue
		}
		maxSessions += a.Packages[0].MaxClients * node.Cores()
	}
	return maxSessions
}

// buildProbes wires a monitor probe to every deployed node: its host, its
// tier's memory profile and per-request traffic, and the engine's counter
// source for its role. Network and disk operation counts derive from the
// served operations and the workload's mean transfer sizes. hostOf maps
// every role the engine models to its host.
func buildProbes(d *mulini.Deployment, p *deploy.Placement, eng engine, model interface {
	MeanBytes() (float64, float64)
}) (probes []monitor.Probe, hostOf map[string]string) {
	reqBytes, replyBytes := model.MeanBytes()
	hostOf = map[string]string{}
	for _, a := range d.Assignments {
		node, ok := p.Node(a.Role)
		if !ok {
			continue
		}
		mp := memProfile[a.Tier]
		probe := monitor.Probe{
			Host:        node.Name(),
			Role:        a.Role,
			TotalMemMB:  float64(node.Pool().MemoryMB),
			BaseMemMB:   mp.base,
			MemPerJobMB: mp.perJob,
			BytesPerOp:  reqBytes + replyBytes,
			Counters:    eng.counters(a.Role, a.Tier, node),
		}
		switch a.Tier {
		case "db":
			probe.BytesPerOp = 600 // query + row traffic, not page bodies
			probe.DiskOpsPerOp = 1.6
		case "app":
			probe.BytesPerOp = replyBytes + 400
		}
		if probe.Counters != nil {
			hostOf[a.Role] = node.Name()
		}
		probes = append(probes, probe)
	}
	return probes, hostOf
}

// newResult starts a trial's stored result: the grid key, the engine
// tag, the fault profile, the run length and the monitoring volume.
func newResult(e *spec.Experiment, d *mulini.Deployment, mon *monitor.Monitor, cfg TrialConfig, dur float64) store.Result {
	return store.Result{
		Key: store.Key{
			Experiment:    e.Name,
			Topology:      d.Topology.String(),
			Users:         cfg.Users,
			WriteRatioPct: cfg.WriteRatioPct,
		},
		Engine:         cfg.Engine,
		FaultProfile:   cfg.FaultProfile,
		RunSeconds:     dur,
		CollectedBytes: mon.CollectedBytes(),
		TierCPU:        map[string]float64{},
		HostCPU:        map[string]float64{},
	}
}

// judge records a trial's completion verdict: a trial with no requests,
// or with an error rate above FailureErrorRate, failed to complete.
func judge(res *store.Result) {
	total := res.Requests + res.Errors
	switch {
	case total == 0:
		res.Completed = false
		res.FailReason = "no requests completed during the run period"
	case res.ErrorRate() > FailureErrorRate:
		res.Completed = false
		res.FailReason = fmt.Sprintf("error rate %.1f%% exceeds %.0f%%",
			res.ErrorRate()*100, FailureErrorRate*100)
	default:
		res.Completed = true
	}
}

// collectUtilization aggregates the monitor's utilization series over the
// run window into per-host and per-tier means, exactly as the paper's
// analysis pipeline reads sysstat output. Disk and network maps stay nil
// (and thus absent from stored output) unless the run observed those
// resources. hostOf holds the roles the engine modelled.
func collectUtilization(res *store.Result, d *mulini.Deployment, mon *monitor.Monitor,
	hostOf map[string]string, runStart, runEnd float64) {

	sums, counts := map[string]float64{}, map[string]int{}
	for _, f := range [...]struct {
		metric     string
		host, tier *map[string]float64
	}{
		{"cpu", &res.HostCPU, &res.TierCPU},
		{"disk-util", &res.HostDisk, &res.TierDisk},
		{"net-util", &res.HostNet, &res.TierNet},
	} {
		clear(sums)
		clear(counts)
		for _, a := range d.Assignments {
			host := hostOf[a.Role]
			if host == "" {
				continue
			}
			ts, ok := mon.Series(host, f.metric)
			if !ok {
				continue
			}
			mean, ok := ts.MeanIn(runStart, runEnd)
			if !ok {
				continue
			}
			if *f.host == nil {
				*f.host = map[string]float64{}
			}
			(*f.host)[a.Role] = mean
			sums[a.Tier] += mean
			counts[a.Tier]++
		}
		for tier, sum := range sums {
			if *f.tier == nil {
				*f.tier = map[string]float64{}
			}
			(*f.tier)[tier] = sum / float64(counts[tier])
		}
	}
}

// mixRootSeed folds a runner-level root seed and the experiment name into
// a derived trial seed. Keeping this a separate step (a no-op when the
// root is zero) preserves every historical seed derivation bit-for-bit.
func mixRootSeed(h, root uint64, experiment string) uint64 {
	mix := func(x uint64) {
		h ^= x
		h *= 0x100000001b3
	}
	mix(root * 0x9e3779b97f4a7c15)
	for i := 0; i < len(experiment); i++ {
		mix(uint64(experiment[i]))
	}
	if h == 0 {
		h = 1
	}
	return h
}

// mixAttempt folds a retry-attempt index into a derived trial seed so a
// retried workload point draws a fresh random stream. Attempt 0 is a
// no-op, keeping every historical derivation bit-for-bit.
func mixAttempt(h uint64, attempt int) uint64 {
	if attempt <= 0 {
		return h
	}
	h ^= uint64(attempt) * 0x9e3779b97f4a7c15
	h *= 0x100000001b3
	if h == 0 {
		h = 1
	}
	return h
}

// deriveSeed mixes the experiment seed with the trial coordinates so each
// trial has an independent, reproducible random stream.
func deriveSeed(base uint64, topo string, users int, wr float64) uint64 {
	h := base
	mix := func(x uint64) {
		h ^= x
		h *= 0x100000001b3
	}
	for i := 0; i < len(topo); i++ {
		mix(uint64(topo[i]))
	}
	mix(uint64(users))
	mix(uint64(wr * 1000))
	if h == 0 {
		h = 1
	}
	return h
}
