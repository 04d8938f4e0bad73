package experiment

import (
	"fmt"
	"math"

	"elba/internal/cluster"
	"elba/internal/expr"
	"elba/internal/fault"
	"elba/internal/fluid"
	"elba/internal/monitor"
	"elba/internal/sim"
	"elba/internal/spec"
	"elba/internal/store"
)

// fluidEngine is the aggregated user-class flow approximation: a
// deterministic integrator whose cost is independent of the population.
// The kernel carries only the monitor's tick schedule; the solver follows
// it, so a fluid trial's stored output is shaped exactly like an exact
// one — only tagged with Engine "fluid".
type fluidEngine struct {
	k       *sim.Kernel
	e       *spec.Experiment
	solver  *fluid.Solver
	users   int // current admitted session population
	runSnap fluid.Snapshot
	endSnap fluid.Snapshot
	winSnap fluid.Snapshot
}

// newFluidEngine derives the solver from the deployed placement, the
// TBL-declared demands and the workload's stationary class mix.
func newFluidEngine(s trialSetup) (engine, error) {
	if len(s.e.Faults) > 0 || len(s.cfg.FaultPlan) > 0 {
		return nil, fmt.Errorf("experiment: the fluid engine cannot emulate fault windows")
	}
	sessions, refused := s.cfg.Users, 0
	if s.maxSessions > 0 && sessions > s.maxSessions {
		refused = sessions - s.maxSessions
		sessions = s.maxSessions
	}
	fcfg := fluid.Config{
		Sessions:   sessions,
		Refused:    refused,
		ThinkSec:   s.model.ThinkTime(),
		TimeoutSec: s.e.Workload.TimeoutSec,
		RampUpSec:  s.rampUp,
	}
	tiers := [expr.NumTiers]*fluid.TierSpec{&fcfg.Web, &fcfg.App, &fcfg.DB}
	for ti, tier := range tierNames {
		td := s.e.Demands[tier]
		tspec := fluid.TierSpec{Name: tier, CPUScale: td.CPUScale, DiskSec: td.DiskSec, NetBytes: td.NetBytes}
		for _, role := range s.d.Roles(tier) {
			node, ok := s.p.Node(role)
			if !ok {
				return nil, fmt.Errorf("experiment: role %s has no allocated node", role)
			}
			ns := fluid.NodeSpec{Cores: node.Cores(), Speed: node.EffectiveSpeed()}
			ns.DiskRate, ns.NetRate = resourceRates(td, node)
			tspec.Nodes = append(tspec.Nodes, ns)
		}
		*tiers[ti] = tspec
	}
	pi := s.model.Matrix().Stationary()
	for j, c := range s.model.Interactions() {
		fcfg.Classes = append(fcfg.Classes, fluid.Class{
			Name: c.Name, Weight: pi[j],
			Web: c.WebDemand, App: c.AppDemand, DB: c.DBDemand,
			Write: c.Write,
		})
	}
	solver, err := fluid.New(fcfg)
	if err != nil {
		return nil, err
	}
	return &fluidEngine{k: s.k, e: s.e, solver: solver, users: sessions}, nil
}

// start is a no-op: the solver ramps its sessions in itself.
func (f *fluidEngine) start() {}

func (f *fluidEngine) advance(t float64) {
	f.k.Run(t)
	f.solver.Advance(t)
}

func (f *fluidEngine) beginRun() {
	f.runSnap = f.solver.Snapshot()
	f.winSnap = f.runSnap
}

// endRun closes the run where the solver stands: after windowed runs
// that is the last window boundary, which the solver has reached.
func (f *fluidEngine) endRun(float64) { f.endSnap = f.solver.Snapshot() }

func (f *fluidEngine) counters(_, tier string, node *cluster.Node) monitor.Counters {
	ti, ok := expr.TierIndex(tier)
	if !ok {
		return nil
	}
	disk, net := resourceRates(f.e.Demands[tier], node)
	return &fluidHost{f: f, tier: ti, cores: node.Cores(), disk: disk > 0, net: net > 0}
}

// tierBusy reads the per-node busy integrals. Nodes of a tier are
// interchangeable, so the capacity is one node's: its cores, one disk and
// one link (a tier without disk or network demand reads zero busy).
func (f *fluidEngine) tierBusy(ti int) (busy, capacity [expr.NumResources]float64) {
	busy = [expr.NumResources]float64{
		expr.ResCPU:  f.solver.NodeCPUBusy(ti),
		expr.ResDisk: f.solver.NodeDiskBusy(ti),
		expr.ResNet:  f.solver.NodeNetBusy(ti),
	}
	capacity = [expr.NumResources]float64{
		expr.ResCPU:  float64(f.solver.NodeCores(ti)),
		expr.ResDisk: 1,
		expr.ResNet:  1,
	}
	return busy, capacity
}

// window reads the solver's window statistics since the previous window.
// Goodput is the same quantity the DES counts: successful, in-deadline
// completions.
func (f *fluidEngine) window() windowStats {
	cur := f.solver.Snapshot()
	st := f.solver.StatsBetween(f.winSnap, cur)
	f.winSnap = cur
	w := windowStats{end: cur.Time, dur: st.DurationSec, served: st.Requests}
	if st.Requests > 1e-9 {
		w.q = [3]float64{st.P50ms / 1000, st.P90ms / 1000, st.P99ms / 1000}
		w.measured = true
	}
	return w
}

func (f *fluidEngine) setUsers(n int) {
	if n != f.users {
		f.solver.SetSessions(n)
		f.users = n
	}
}

// fault is never called: newFluidEngine rejects trials with faults.
func (f *fluidEngine) fault(fault.Event, float64, float64) {}

// Replicas reports a tier's node count.
func (f *fluidEngine) Replicas(tier int) int { return f.solver.TierNodes(tier) }

// Scale retargets a tier's node count. SetTierNodes clones the tier's
// first node spec for growth just as the DES clones the tier's first
// deployed node, so both engines scale onto identical hardware; no spare
// pool is needed because validation bounds targets by the policy max.
func (f *fluidEngine) Scale(tier, target int) int {
	f.solver.SetTierNodes(tier, target)
	return f.solver.TierNodes(tier)
}

func (f *fluidEngine) fill(res *store.Result) {
	stats := f.solver.StatsBetween(f.runSnap, f.endSnap)
	res.Requests = int64(math.Round(stats.Requests))
	res.Errors = int64(math.Round(stats.Errors))
	if res.Requests > 0 {
		res.AvgRTms = stats.MeanRTms
		res.P50ms = stats.P50ms
		res.P90ms = stats.P90ms
		res.P99ms = stats.P99ms
		res.MaxRTms = stats.MaxRTms
		res.Throughput = float64(res.Requests) / res.RunSeconds
	}
	if len(stats.PerClass) > 0 {
		res.PerInteraction = make(map[string]float64, len(stats.PerClass))
		for _, c := range stats.PerClass {
			res.PerInteraction[c.Name] = c.MeanMS
		}
	}
}

// fluidHost is one modelled host's counter source. Every reading first
// advances the solver to the kernel clock, so a monitor sample sees the
// fluid state at exactly the instant the DES monitor would sample.
type fluidHost struct {
	f           *fluidEngine
	tier, cores int
	disk, net   bool
}

func (h *fluidHost) sync() *fluid.Solver {
	h.f.solver.Advance(h.f.k.Now())
	return h.f.solver
}

func (h *fluidHost) CPU() (float64, int)     { return h.sync().NodeCPUBusy(h.tier), h.cores }
func (h *fluidHost) Jobs() float64           { return h.sync().NodeJobs(h.tier) }
func (h *fluidHost) Ops() float64            { return h.sync().NodeOps(h.tier) }
func (h *fluidHost) Resources() (bool, bool) { return h.disk, h.net }
func (h *fluidHost) DiskBusy() float64       { return h.sync().NodeDiskBusy(h.tier) }
func (h *fluidHost) NetBusy() float64        { return h.sync().NodeNetBusy(h.tier) }
