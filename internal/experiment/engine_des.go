package experiment

import (
	"fmt"
	"sort"

	"elba/internal/cluster"
	"elba/internal/expr"
	"elba/internal/fault"
	"elba/internal/metrics"
	"elba/internal/monitor"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
	"elba/internal/trace"
)

// desEngine is the exact discrete-event simulation: one Markov emulator
// per user session against a queueing network built from the deployed
// placement.
type desEngine struct {
	k         *sim.Kernel
	e         *spec.Experiment
	nt        *sim.NTier
	driver    *sim.Driver
	stationOf map[string]*sim.Station
	users     int // current session population

	tracer         *trace.Collector
	traceExemplars int
	sketch         *metrics.TDigest

	// Observation window state.
	winStart float64
	rtRead   int       // measured RTs consumed by earlier windows
	rts      []float64 // scratch, reused across windows

	// Autoscaling actuation (scale.go); spares is empty without policies.
	spares [expr.NumTiers]*cluster.Cluster
	nodeOf map[*sim.Station]*cluster.Node
	serial [expr.NumTiers]int
}

// newDESEngine builds the queueing network and the session driver. Tiers
// whose spec declares disk or network demands get per-node Resource
// queues sized from the allocated hardware's Table-2 capacities; without
// demands the stations are exactly the historical CPU-only ones.
func newDESEngine(s trialSetup) (engine, error) {
	g := &desEngine{k: s.k, e: s.e, users: s.cfg.Users, stationOf: map[string]*sim.Station{}}
	var tiers [expr.NumTiers][]*sim.Station
	for ti, tier := range tierNames {
		for _, role := range s.d.Roles(tier) {
			node, ok := s.p.Node(role)
			if !ok {
				return nil, fmt.Errorf("experiment: role %s has no allocated node", role)
			}
			st := newStation(s.k, role, node, s.e.Demands[tier])
			g.stationOf[role] = st
			tiers[ti] = append(tiers[ti], st)
		}
	}
	g.nt = &sim.NTier{
		Web: sim.NewTier(s.k, "web", sim.RoundRobin, tiers[expr.TierWeb]),
		App: sim.NewTier(s.k, "app", sim.RoundRobin, tiers[expr.TierApp]),
		DB:  sim.NewRAIDb(s.k, sim.RoundRobin, tiers[expr.TierDB]),
	}
	for ti, tier := range tierNames {
		d := s.e.Demands[tier]
		g.nt.Demands[ti] = sim.TierDemand{CPUScale: d.CPUScale, DiskSec: d.DiskSec, NetBytes: d.NetBytes}
	}
	g.nt.DB.Demand = g.nt.Demands[expr.TierDB]
	if len(s.e.Policies) > 0 {
		if err := g.buildSpares(s.d, s.p); err != nil {
			return nil, err
		}
	}

	g.driver = sim.NewDriver(s.k, g.nt, s.model, sim.DriverConfig{
		Users:       s.cfg.Users,
		Timeout:     s.e.Workload.TimeoutSec,
		RampUp:      s.rampUp,
		MaxSessions: s.maxSessions,
	}, s.seed^0x5eed)

	// Request-level tracing: one single-owner collector per trial, seeded
	// from the trial seed under the "trace" domain, so the traced subset is
	// a pure function of the trial coordinates — identical for any worker
	// count, and absent entirely when the rate is zero.
	knobs := s.cfg.knobs()
	if knobs.TraceRate > 0 {
		g.tracer = trace.NewCollector(trace.SeedFor(s.seed), knobs.TraceRate)
		g.traceExemplars = knobs.TraceExemplars
		g.driver.SetTracer(g.tracer)
	}

	// Response-time tap: a per-trial sketch (milliseconds, to match the
	// stored percentile fields) and/or the caller's live observer. The tap
	// sees exactly the measurement stream in completion order, which is a
	// pure function of the trial seed — so the sketch is byte-reproducible
	// for any worker count.
	if knobs.SketchRT || s.cfg.RTObserver != nil {
		var obs metrics.MultiObserver
		if knobs.SketchRT {
			sk := metrics.NewTDigest(metrics.DefaultTDigestCompression)
			g.sketch = sk
			obs = append(obs, metrics.ObserverFunc(func(rt float64) { sk.Observe(rt * 1000) }))
		}
		if s.cfg.RTObserver != nil {
			obs = append(obs, s.cfg.RTObserver)
		}
		if len(obs) == 1 {
			g.driver.SetRTObserver(obs[0])
		} else {
			g.driver.SetRTObserver(obs)
		}
	}
	return g, nil
}

// newStation builds a role's station on its allocated node, attaching
// the disk and network resource queues resourceRates gates in.
func newStation(k *sim.Kernel, role string, node *cluster.Node, td spec.ResourceDemand) *sim.Station {
	st := sim.NewStation(k, sim.StationConfig{
		Name:    role,
		Servers: node.Cores(),
		Speed:   node.EffectiveSpeed(),
	})
	disk, net := resourceRates(td, node)
	if disk > 0 {
		st.AttachDisk(sim.NewResource(k, role+"/disk", disk))
	}
	if net > 0 {
		st.AttachNet(sim.NewResource(k, role+"/net", net))
	}
	return st
}

func (g *desEngine) start() { g.driver.Start() }

func (g *desEngine) advance(t float64) { g.k.Run(t) }

func (g *desEngine) beginRun() {
	g.nt.ResetAccounting()
	g.driver.BeginMeasurement()
	g.winStart = g.k.Now()
	g.rtRead = 0
}

// endRun runs the kernel to t once more before measurement stops, so
// zero-delay events scheduled at the final window boundary still land
// inside the run.
func (g *desEngine) endRun(t float64) {
	g.k.Run(t)
	g.driver.EndMeasurement()
}

func (g *desEngine) counters(role, _ string, _ *cluster.Node) monitor.Counters {
	st := g.stationOf[role]
	if st == nil {
		return nil
	}
	return monitor.StationCounters(st)
}

// stations reports a tier's active and retired station lists. Station
// lists are re-read from the live tiers every window, so an autoscaling
// policy's replica-set changes are visible to the very next observation.
func (g *desEngine) stations(ti int) (active, retired []*sim.Station) {
	switch ti {
	case expr.TierWeb:
		return g.nt.Web.Stations(), g.nt.Web.Retired()
	case expr.TierApp:
		return g.nt.App.Stations(), g.nt.App.Retired()
	default:
		return g.nt.DB.Replicas(), g.nt.DB.Retired()
	}
}

// tierBusy sums the stations' busy-time integrals — the same counters the
// monitor samples. Retired stations keep contributing to the cumulative
// busy numerator (their drain work happened, and dropping them would step
// the sums backwards); only active stations count toward capacity.
func (g *desEngine) tierBusy(ti int) (busy, capacity [expr.NumResources]float64) {
	active, retired := g.stations(ti)
	for _, st := range active {
		busy[expr.ResCPU] += st.BusyTime()
		capacity[expr.ResCPU] += float64(st.Servers())
		if d := st.Disk(); d != nil {
			busy[expr.ResDisk] += d.BusyTime()
			capacity[expr.ResDisk]++
		}
		if n := st.Net(); n != nil {
			busy[expr.ResNet] += n.BusyTime()
			capacity[expr.ResNet]++
		}
	}
	for _, st := range retired {
		busy[expr.ResCPU] += st.BusyTime()
		if d := st.Disk(); d != nil {
			busy[expr.ResDisk] += d.BusyTime()
		}
		if n := st.Net(); n != nil {
			busy[expr.ResNet] += n.BusyTime()
		}
	}
	return busy, capacity
}

// window reads the driver's measured response times since the previous
// window (fill sorts the sample only after the last one): goodput counts
// OK, in-deadline completions, whose response times give the quantiles.
func (g *desEngine) window() windowStats {
	now := g.k.Now()
	w := windowStats{end: now, dur: now - g.winStart}
	g.winStart = now
	rts := g.driver.ResponseTimes()
	g.rts = rts.AppendSince(g.rts[:0], g.rtRead)
	g.rtRead = rts.Count()
	w.served = float64(len(g.rts))
	if len(g.rts) > 0 {
		sort.Float64s(g.rts)
		w.q = [3]float64{
			metrics.QuantileSorted(g.rts, 0.50),
			metrics.QuantileSorted(g.rts, 0.90),
			metrics.QuantileSorted(g.rts, 0.99),
		}
		w.measured = true
	}
	return w
}

// setUsers starts new sessions at once, or retires the most recent ones.
func (g *desEngine) setUsers(n int) {
	switch {
	case n > g.users:
		g.driver.AddUsers(n-g.users, 0)
	case n < g.users:
		g.driver.RemoveUsers(g.users - n)
	}
	g.users = n
}

// fault schedules one fault's start and recovery on the kernel. Roles
// not present in the topology are ignored.
func (g *desEngine) fault(ev fault.Event, at, dur float64) {
	end := at + dur
	switch ev.Kind {
	case fault.Crash:
		st, ok := g.stationOf[ev.Role]
		if !ok {
			return
		}
		g.k.Schedule(at, st.Fail)
		g.k.Schedule(end, st.Recover)
	case fault.Slowdown, fault.Stall:
		st, ok := g.stationOf[ev.Role]
		if !ok {
			return
		}
		f := ev.Factor
		g.k.Schedule(at, func() { st.SetDegradation(f) })
		g.k.Schedule(end, func() { st.SetDegradation(1) })
	case fault.ErrorBurst:
		f := ev.Factor
		g.k.Schedule(at, func() { g.driver.SetErrorRate(f) })
		g.k.Schedule(end, func() { g.driver.SetErrorRate(0) })
	}
}

func (g *desEngine) fill(res *store.Result) {
	rts := g.driver.ResponseTimes()
	res.Requests = int64(rts.Count())
	res.Errors = g.driver.Errors()
	if rts.Count() > 0 {
		res.AvgRTms = rts.Mean() * 1000
		res.P50ms = rts.Percentile(50) * 1000
		res.P90ms = rts.Percentile(90) * 1000
		res.P99ms = rts.Percentile(99) * 1000
		res.MaxRTms = rts.Max() * 1000
		res.Throughput = float64(rts.Count()) / res.RunSeconds
	}
	if per := g.driver.PerInteraction(); len(per) > 0 {
		res.PerInteraction = make(map[string]float64, len(per))
		for name, s := range per {
			res.PerInteraction[name] = s.Mean() * 1000
		}
	}
	res.InjectedErrors = g.driver.InjectedErrors()
	if g.sketch != nil && g.sketch.Count() > 0 {
		g.sketch.Compress()
		res.RTSketch = g.sketch
	}
	if g.tracer != nil {
		res.Trace = trace.BuildReport(g.tracer, g.traceExemplars)
	}
}
