package experiment

import (
	"fmt"

	"elba/internal/deploy"
	"elba/internal/fault"
	"elba/internal/metrics"
	"elba/internal/monitor"
	"elba/internal/mulini"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
	"elba/internal/trace"
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

// RunTrial executes one trial of experiment e against a deployed
// placement. The simulated application is constructed from the placement's
// actual nodes: CPU speeds come from the allocated hardware and the
// session capacity from the deployed app-server packages, so a wrong
// deployment shows up as a wrong measurement.
func RunTrial(e *spec.Experiment, d *mulini.Deployment, p *deploy.Placement, cfg TrialConfig) (*TrialOutcome, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("experiment: trial needs at least one user")
	}
	switch cfg.Engine {
	case "", EngineDES:
	case EngineFluid:
		return runFluidTrial(e, d, p, cfg)
	default:
		return nil, fmt.Errorf("experiment: unknown trial engine %q", cfg.Engine)
	}
	knobs := cfg.knobs()
	ts := knobs.timeScale()
	seed := cfg.seed(e, d)

	model, err := Model(e, cfg.WriteRatioPct)
	if err != nil {
		return nil, err
	}

	k := sim.NewKernel(seed)
	nt, maxSessions, err := buildNTier(k, e, d, p)
	if err != nil {
		return nil, err
	}

	warm, run, cool, rampUp := phases(e, ts)
	driver := sim.NewDriver(k, nt, model, sim.DriverConfig{
		Users:       cfg.Users,
		Timeout:     e.Workload.TimeoutSec,
		RampUp:      rampUp,
		MaxSessions: maxSessions,
	}, seed^0x5eed)

	// Request-level tracing: one single-owner collector per trial, seeded
	// from the trial seed under the "trace" domain, so the traced subset is
	// a pure function of the trial coordinates — identical for any worker
	// count, and absent entirely when the rate is zero.
	var tracer *trace.Collector
	if knobs.TraceRate > 0 {
		tracer = trace.NewCollector(trace.SeedFor(seed), knobs.TraceRate)
		driver.SetTracer(tracer)
	}

	// Response-time tap: a per-trial sketch (milliseconds, to match the
	// stored percentile fields) and/or the caller's live observer. The tap
	// sees exactly the measurement stream in completion order, which is a
	// pure function of the trial seed — so the sketch is byte-reproducible
	// for any worker count.
	var sketch *metrics.TDigest
	if knobs.SketchRT || cfg.RTObserver != nil {
		var obs metrics.MultiObserver
		if knobs.SketchRT {
			sk := metrics.NewTDigest(metrics.DefaultTDigestCompression)
			sketch = sk
			obs = append(obs, metrics.ObserverFunc(func(rt float64) { sk.Observe(rt * 1000) }))
		}
		if cfg.RTObserver != nil {
			obs = append(obs, cfg.RTObserver)
		}
		if len(obs) == 1 {
			driver.SetRTObserver(obs[0])
		} else {
			driver.SetRTObserver(obs)
		}
	}

	probes, stationOf, hostOf := buildProbes(d, p, nt, model)
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
		if ev.Kind != fault.ErrorBurst {
			if _, ok := stationOf[f.Role]; !ok {
				return nil, fmt.Errorf("experiment: fault names role %s, absent from topology %s",
					f.Role, d.Topology)
			}
		}
		if f.WhenExpr != "" {
			continue
		}
		scheduleFault(k, driver, stationOf, ev, warm, ts)
	}
	// Profile-derived fault plan: same mechanism, derived coordinates.
	// Roles absent from this topology are skipped silently — the plan is
	// drawn from the deployment's own role list, so that only happens for
	// hand-built configs.
	for _, ev := range cfg.FaultPlan {
		scheduleFault(k, driver, stationOf, ev, warm, ts)
	}

	// Expression hooks: nil for expression-free specs, which therefore run
	// the exact historical event stream.
	hooks, err := newExprHooks(e, warm, run, ts, e.Monitor.IntervalSec*ts, maxSessions)
	if err != nil {
		return nil, err
	}
	if hooks != nil && len(hooks.policies) > 0 {
		scaler, err := newDESScaler(e, k, d, p, nt)
		if err != nil {
			return nil, err
		}
		hooks.actuator = scaler
	}

	driver.Start()
	mon.Start()

	k.Run(warm)
	nt.ResetAccounting()
	driver.BeginMeasurement()
	runStart := k.Now()
	if hooks != nil {
		hooks.armDES(k, driver, nt, stationOf, cfg.Users)
	}
	k.Run(warm + run)
	driver.EndMeasurement()
	runEnd := k.Now()
	k.Run(warm + run + cool)
	mon.Stop()

	res := assembleResult(e, d, driver, mon, stationOf, hostOf, cfg, runStart, runEnd)
	if sketch != nil && sketch.Count() > 0 {
		sketch.Compress()
		res.RTSketch = sketch
	}
	res.DeployRetries = p.Retries
	res.DeploySeconds = p.DeploySec
	if hooks != nil {
		hooks.record(&res)
	}
	if tracer != nil {
		res.Trace = trace.BuildReport(tracer, knobs.TraceExemplars)
	}
	return &TrialOutcome{Result: res, Monitor: mon, RunWindow: [2]float64{runStart, runEnd}}, nil
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

// scheduleFault arms one fault window on the trial's kernel. Times are
// relative to the run period's start and scale with the trial; roles not
// present in the topology are ignored. It must be called before the
// kernel runs (delays are measured from time zero).
func scheduleFault(k *sim.Kernel, driver *sim.Driver, stationOf map[string]*sim.Station,
	ev fault.Event, warm, ts float64) {
	armFault(k, driver, stationOf, ev, warm+ev.AtSec*ts, ev.DurationSec*ts)
}

// armFault schedules one fault's start and recovery, `at` kernel seconds
// from now for `dur` kernel seconds. When-guarded faults fire through
// this path at a window boundary with at = 0.
func armFault(k *sim.Kernel, driver *sim.Driver, stationOf map[string]*sim.Station,
	ev fault.Event, at, dur float64) {

	end := at + dur
	switch ev.Kind {
	case fault.Crash:
		st, ok := stationOf[ev.Role]
		if !ok {
			return
		}
		k.Schedule(at, st.Fail)
		k.Schedule(end, st.Recover)
	case fault.Slowdown, fault.Stall:
		st, ok := stationOf[ev.Role]
		if !ok {
			return
		}
		f := ev.Factor
		k.Schedule(at, func() { st.SetDegradation(f) })
		k.Schedule(end, func() { st.SetDegradation(1) })
	case fault.ErrorBurst:
		f := ev.Factor
		k.Schedule(at, func() { driver.SetErrorRate(f) })
		k.Schedule(end, func() { driver.SetErrorRate(0) })
	}
}

// buildNTier constructs the queueing network from the deployed placement
// and reports the deployment's total session capacity. Tiers whose spec
// declares disk or network demands get per-node Resource queues sized
// from the allocated hardware's Table-2 capacities; without demands the
// stations are exactly the historical CPU-only ones.
func buildNTier(k *sim.Kernel, e *spec.Experiment, d *mulini.Deployment, p *deploy.Placement) (*sim.NTier, int, error) {
	mkStations := func(tier string) ([]*sim.Station, error) {
		td := e.Demands[tier]
		var out []*sim.Station
		for _, role := range d.Roles(tier) {
			node, ok := p.Node(role)
			if !ok {
				return nil, fmt.Errorf("experiment: role %s has no allocated node", role)
			}
			st := sim.NewStation(k, sim.StationConfig{
				Name:    role,
				Servers: node.Cores(),
				Speed:   node.EffectiveSpeed(),
			})
			if td.DiskSec > 0 {
				ds := node.EffectiveDiskSpeed()
				if ds <= 0 {
					ds = node.DiskSpeed()
				}
				st.AttachDisk(sim.NewResource(k, role+"/disk", ds))
			}
			if td.NetBytes > 0 {
				if bps := node.NetBytesPerSec(); bps > 0 {
					st.AttachNet(sim.NewResource(k, role+"/net", bps))
				}
			}
			out = append(out, st)
		}
		return out, nil
	}
	web, err := mkStations("web")
	if err != nil {
		return nil, 0, err
	}
	app, err := mkStations("app")
	if err != nil {
		return nil, 0, err
	}
	db, err := mkStations("db")
	if err != nil {
		return nil, 0, err
	}
	maxSessions := sessionCapacity(d, p)
	nt := &sim.NTier{
		Web: sim.NewTier(k, "web", sim.RoundRobin, web),
		App: sim.NewTier(k, "app", sim.RoundRobin, app),
		DB:  sim.NewRAIDb(k, sim.RoundRobin, db),
	}
	conv := func(d spec.ResourceDemand) sim.TierDemand {
		return sim.TierDemand{CPUScale: d.CPUScale, DiskSec: d.DiskSec, NetBytes: d.NetBytes}
	}
	nt.Demands = [3]sim.TierDemand{
		conv(e.Demands["web"]), conv(e.Demands["app"]), conv(e.Demands["db"]),
	}
	nt.DB.Demand = nt.Demands[2]
	return nt, maxSessions, nil
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

// buildProbes wires a monitor probe to every deployed node. Network and
// disk counters are derived from the station completion counters and the
// workload's mean transfer sizes.
func buildProbes(d *mulini.Deployment, p *deploy.Placement, nt *sim.NTier, model interface {
	MeanBytes() (float64, float64)
}) ([]monitor.Probe, map[string]*sim.Station, map[string]string) {
	reqBytes, replyBytes := model.MeanBytes()
	stationOf := map[string]*sim.Station{}
	hostOf := map[string]string{}
	byTier := map[string][]*sim.Station{
		"web": nt.Web.Stations(),
		"app": nt.App.Stations(),
		"db":  nt.DB.Replicas(),
	}
	for tier, stations := range byTier {
		for i, role := range d.Roles(tier) {
			if i < len(stations) {
				stationOf[role] = stations[i]
			}
		}
	}
	var probes []monitor.Probe
	for _, a := range d.Assignments {
		node, ok := p.Node(a.Role)
		if !ok {
			continue
		}
		hostOf[a.Role] = node.Name()
		mp := memProfile[a.Tier]
		probe := monitor.Probe{
			Host:        node.Name(),
			Role:        a.Role,
			Station:     stationOf[a.Role],
			TotalMemMB:  float64(node.Pool().MemoryMB),
			BaseMemMB:   mp.base,
			MemPerJobMB: mp.perJob,
		}
		if st := stationOf[a.Role]; st != nil {
			perReq := reqBytes + replyBytes
			switch a.Tier {
			case "db":
				perReq = 600 // query + row traffic, not page bodies
			case "app":
				perReq = replyBytes + 400
			}
			probe.NetBytes = func() float64 { return float64(st.Completed()) * perReq }
			if a.Tier == "db" {
				probe.DiskOps = func() float64 { return float64(st.Completed()) * 1.6 }
			}
			probe.Disk = st.Disk()
			probe.NetRes = st.Net()
		}
		probes = append(probes, probe)
	}
	return probes, stationOf, hostOf
}

func assembleResult(e *spec.Experiment, d *mulini.Deployment, driver *sim.Driver,
	mon *monitor.Monitor, stationOf map[string]*sim.Station, hostOf map[string]string,
	cfg TrialConfig, runStart, runEnd float64) store.Result {

	rts := driver.ResponseTimes()
	dur := runEnd - runStart
	res := newResult(e, d, mon, cfg, dur)
	res.Requests = int64(rts.Count())
	res.Errors = driver.Errors()
	if rts.Count() > 0 {
		res.AvgRTms = rts.Mean() * 1000
		res.P50ms = rts.Percentile(50) * 1000
		res.P90ms = rts.Percentile(90) * 1000
		res.P99ms = rts.Percentile(99) * 1000
		res.MaxRTms = rts.Max() * 1000
		res.Throughput = float64(rts.Count()) / dur
	}
	if per := driver.PerInteraction(); len(per) > 0 {
		res.PerInteraction = make(map[string]float64, len(per))
		for name, s := range per {
			res.PerInteraction[name] = s.Mean() * 1000
		}
	}
	if len(cfg.FaultPlan) > 0 {
		res.FaultEvents = make([]string, len(cfg.FaultPlan))
		for i, fe := range cfg.FaultPlan {
			res.FaultEvents[i] = fe.String()
		}
	}
	res.InjectedErrors = driver.InjectedErrors()

	collectUtilization(&res, d, mon, hostOf,
		func(role string) bool { return stationOf[role] != nil }, runStart, runEnd)
	judge(&res)
	return res
}

// newResult starts a trial's stored result: the grid key, the engine
// tag, the fault profile, the run length and the monitoring volume. Both
// engines assemble their results from it.
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
// resources. observed filters to roles the engine actually modelled.
func collectUtilization(res *store.Result, d *mulini.Deployment, mon *monitor.Monitor,
	hostOf map[string]string, observed func(role string) bool, runStart, runEnd float64) {

	tierSums := map[string]float64{}
	tierCounts := map[string]int{}
	// Allocated lazily: a CPU-only trial (no declared demands) must not
	// allocate for resources it never observed.
	var diskSums, netSums map[string]float64
	var diskCounts, netCounts map[string]int
	for _, a := range d.Assignments {
		if !observed(a.Role) {
			continue
		}
		host := hostOf[a.Role]
		if host == "" {
			continue
		}
		if ts, ok := mon.Series(host, "cpu"); ok {
			if mean, ok := ts.MeanIn(runStart, runEnd); ok {
				res.HostCPU[a.Role] = mean
				tierSums[a.Tier] += mean
				tierCounts[a.Tier]++
			}
		}
		if ts, ok := mon.Series(host, "disk-util"); ok {
			if mean, ok := ts.MeanIn(runStart, runEnd); ok {
				if res.HostDisk == nil {
					res.HostDisk = map[string]float64{}
					diskSums = map[string]float64{}
					diskCounts = map[string]int{}
				}
				res.HostDisk[a.Role] = mean
				diskSums[a.Tier] += mean
				diskCounts[a.Tier]++
			}
		}
		if ts, ok := mon.Series(host, "net-util"); ok {
			if mean, ok := ts.MeanIn(runStart, runEnd); ok {
				if res.HostNet == nil {
					res.HostNet = map[string]float64{}
					netSums = map[string]float64{}
					netCounts = map[string]int{}
				}
				res.HostNet[a.Role] = mean
				netSums[a.Tier] += mean
				netCounts[a.Tier]++
			}
		}
	}
	for tier, sum := range tierSums {
		res.TierCPU[tier] = sum / float64(tierCounts[tier])
	}
	for tier, sum := range diskSums {
		if res.TierDisk == nil {
			res.TierDisk = map[string]float64{}
		}
		res.TierDisk[tier] = sum / float64(diskCounts[tier])
	}
	for tier, sum := range netSums {
		if res.TierNet == nil {
			res.TierNet = map[string]float64{}
		}
		res.TierNet[tier] = sum / float64(netCounts[tier])
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
