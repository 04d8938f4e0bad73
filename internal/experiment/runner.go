package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"elba/internal/cim"
	"elba/internal/cluster"
	"elba/internal/deploy"
	"elba/internal/fault"
	"elba/internal/mulini"
	"elba/internal/spec"
	"elba/internal/store"
)

// Runner executes whole experiment sets: for every topology it deploys
// the Mulini-generated bundle, sweeps the workload grid, and records one
// result per trial.
type Runner struct {
	// Options are the run knobs. Catalog and Store are set by NewRunner
	// and must not be replaced afterwards.
	Options

	gen *mulini.Generator

	// KeepGoingOnFailure records failed trials and continues the sweep
	// (the paper's tables keep failed cells as gaps). When false, the
	// first failed trial aborts the experiment.
	KeepGoingOnFailure bool
	// ArchiveDir, when set, stores every trial's raw monitor output
	// (sysstat-format text, one file per host) under
	// <dir>/<experiment>/<topology>/u<users>_w<ratio>/ — the per-host
	// data files the paper collects by the gigabyte (Table 3).
	ArchiveDir string

	// cacheHits and cacheMisses count this runner's workload points
	// served from / computed into TrialCache.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	// clusterMu serializes cluster mutations (allocate/deploy/release).
	clusterMu sync.Mutex
}

// NewRunner builds a runner over the catalog; results accumulate in st.
func NewRunner(catalog *cim.Catalog, st *store.Store) (*Runner, error) {
	gen, err := mulini.NewGenerator(catalog, nil)
	if err != nil {
		return nil, err
	}
	if st == nil {
		st = store.New()
	}
	return &Runner{
		Options:            Options{TimeScale: 1.0, Catalog: catalog, Store: st},
		gen:                gen,
		KeepGoingOnFailure: true,
	}, nil
}

// Store exposes the accumulated results.
func (r *Runner) Store() *store.Store { return r.Options.Store }

// CacheHits reports the workload points this runner served from its
// trial cache (0 when no cache is attached).
func (r *Runner) CacheHits() uint64 { return r.cacheHits.Load() }

// CacheMisses reports the workload points this runner computed and
// stored into its trial cache (0 when no cache is attached).
func (r *Runner) CacheMisses() uint64 { return r.cacheMisses.Load() }

// Generator exposes the Mulini generator (the scale-out controller and
// reports use it directly).
func (r *Runner) Generator() *mulini.Generator { return r.gen }

// Catalog exposes the CIM catalog.
func (r *Runner) Catalog() *cim.Catalog { return r.Options.Catalog }

// newCluster materializes the experiment's platform.
func (r *Runner) newCluster(e *spec.Experiment) (*cluster.Cluster, error) {
	platform, ok := r.Options.Catalog.PlatformByName(e.Platform)
	if !ok {
		return nil, fmt.Errorf("experiment: platform %q not in catalog", e.Platform)
	}
	return cluster.New(platform)
}

// RunExperiment executes the full sweep of e: every topology × user
// population × write ratio. Results (including failed trials) land in the
// runner's store. With Parallel > 1, deployments run concurrently.
func (r *Runner) RunExperiment(e *spec.Experiment) error {
	return r.RunExperimentContext(context.Background(), e)
}

// RunExperimentContext is RunExperiment under a cancellation context:
// when ctx is cancelled, no further trial starts — the in-flight trial
// (milliseconds of simulation) finishes, its result is discarded along
// with everything after the cancellation point in grid order, and the
// sweep returns ctx's error. Results committed before the cancellation
// stay in the store, so an aborted campaign keeps its completed prefix.
func (r *Runner) RunExperimentContext(ctx context.Context, e *spec.Experiment) error {
	deployments, err := r.gen.Generate(e)
	if err != nil {
		return err
	}
	cl, err := r.newCluster(e)
	if err != nil {
		return err
	}

	workers := r.Parallel
	if workers < 1 {
		workers = 1
	}
	// Cap parallelism so the largest concurrent topologies always fit
	// the platform; each deployment also occupies a client machine.
	maxMachines := 0
	for _, d := range deployments {
		if m := d.MachineCount(); m > maxMachines {
			maxMachines = m
		}
	}
	if maxMachines > 0 {
		if fit := cl.Size() / maxMachines; workers > fit {
			workers = fit
		}
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		for _, d := range deployments {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := r.runDeployment(ctx, e, cl, d); err != nil {
				return err
			}
		}
		return nil
	}

	// Fully buffered so early worker exits can never deadlock the feeder.
	jobs := make(chan *mulini.Deployment, len(deployments))
	for _, d := range deployments {
		jobs <- d
	}
	close(jobs)
	// One error slot per worker: a worker stops at its first failed
	// deployment, and every worker's error survives to the joined report
	// (the old single-slot channel silently dropped all but one).
	workerErrs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := range jobs {
				if err := ctx.Err(); err != nil {
					workerErrs[w] = err
					return
				}
				if err := r.runDeployment(ctx, e, cl, d); err != nil {
					workerErrs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(workerErrs...)
}

// serverRoles lists the deployment's server roles in canonical (tier,
// replica) order — the coordinate basis for fault-plan derivation.
func serverRoles(d *mulini.Deployment) []string {
	var roles []string
	for _, tier := range []string{"web", "app", "db"} {
		roles = append(roles, d.Roles(tier)...)
	}
	return roles
}

// armDeployer wires an enabled fault profile into a deployer: slow-node
// degradation factors, the retry policy, and the step-glitch injector.
// Everything derives from (Seed, experiment, topology) coordinates.
func (r *Runner) armDeployer(dp *deploy.Deployer, prof fault.Profile, e *spec.Experiment, d *mulini.Deployment) {
	if !prof.Enabled() {
		return
	}
	topo := d.Topology.String()
	dp.SetNodeFactors(prof.NodeFactors(r.Seed, e.Name, topo, serverRoles(d)))
	dp.SetRetryPolicy(deploy.DefaultRetryPolicy)
	dp.SetStepFault(func(script string, line int, verb, role string) int {
		return prof.GlitchCount(r.Seed, e.Name, topo, script, line)
	})
}

// trialConfig is the config of one workload point of e on deployment d
// under fault profile prof — the one place a TrialConfig is built. The
// knobs are referenced, not copied.
func (r *Runner) trialConfig(e *spec.Experiment, d *mulini.Deployment, prof fault.Profile,
	users int, writeRatioPct float64) TrialConfig {

	cfg := TrialConfig{
		Users:         users,
		WriteRatioPct: writeRatioPct,
		Engine:        r.engineFor(e, users),
		Knobs:         &r.Options,
	}
	if prof.Enabled() {
		cfg.FaultProfile = prof.Name
		cfg.FaultPlan = prof.TrialPlan(r.Seed, e.Name, d.Topology.String(), serverRoles(d),
			users, writeRatioPct, e.Trial.RunSec)
	}
	return cfg
}

// runPoint runs one workload point through the trial cache: a key
// already cached (or in flight on another campaign sharing the cache)
// is served without simulating, everything else is computed by
// runPointUncached and cached on success. With no cache attached the
// uncached path runs directly — byte- and allocation-identical to the
// pre-cache runner.
func (r *Runner) runPoint(ctx context.Context, cache TrialCache, e *spec.Experiment,
	d *mulini.Deployment, placement *deploy.Placement, cfg TrialConfig, workers int) (*TrialOutcome, error) {

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cache == nil {
		return r.runPointUncached(ctx, e, d, placement, cfg, workers)
	}
	var fresh *TrialOutcome
	res, _, err := cache.Do(trialKey(e, d.Topology.String(), cfg), func() (store.Result, error) {
		out, err := r.runPointUncached(ctx, e, d, placement, cfg, workers)
		if err != nil {
			return store.Result{}, err
		}
		if out == nil {
			return store.Result{}, fmt.Errorf("experiment: trial %s/%s u=%d produced no outcome",
				e.Name, d.Topology, cfg.Users)
		}
		fresh = out
		return out.Result, nil
	})
	if err != nil {
		return nil, err
	}
	if fresh != nil {
		// Our computation ran: hand back the full outcome, monitor data
		// and all, exactly as the uncached path would.
		r.cacheMisses.Add(1)
		return fresh, nil
	}
	r.cacheHits.Add(1)
	return &TrialOutcome{Result: res, FromCache: true}, nil
}

// runPointUncached runs one workload point, retrying failed trials up to
// the runner's retry budget with attempt-mixed seeds. It returns the
// first completed attempt, or the last attempt when the budget runs out.
func (r *Runner) runPointUncached(ctx context.Context, e *spec.Experiment, d *mulini.Deployment,
	placement *deploy.Placement, cfg TrialConfig, workers int) (*TrialOutcome, error) {

	retries := r.TrialRetries
	if retries < 0 {
		retries = 0
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		acfg := cfg
		acfg.Attempt = attempt
		out, err := RunReplicatedTrialParallel(e, d, placement, acfg, e.Repeat, workers)
		if err != nil || out == nil {
			return out, err
		}
		// Record the attempt count only once a retry is actually spent, so
		// untroubled sweeps serialize exactly as they did before retries
		// existed (Attempts is omitempty and 0 means "one attempt").
		if attempt > 0 {
			out.Result.Attempts = attempt + 1
		}
		if out.Result.Completed || attempt >= retries {
			return out, nil
		}
	}
}

// runDeployment deploys one topology and sweeps its workload grid.
// Cluster mutations are serialized; the trials themselves run without
// the lock, which is what makes sweep parallelism safe. Each deployment
// gets its own deployer so fault wiring never races across topologies.
func (r *Runner) runDeployment(ctx context.Context, e *spec.Experiment, cl *cluster.Cluster, d *mulini.Deployment) error {
	prof, err := r.profileFor(e)
	if err != nil {
		return err
	}
	deployer := deploy.NewDeployer(cl)
	r.armDeployer(deployer, prof, e, d)

	r.clusterMu.Lock()
	placement, err := deployer.Deploy(d)
	r.clusterMu.Unlock()
	if err != nil {
		return fmt.Errorf("experiment %s/%s: %w", e.Name, d.Topology, err)
	}
	defer func() {
		// Teardown errors after a completed sweep are deployment bugs;
		// surface them loudly rather than silently leaking nodes.
		r.clusterMu.Lock()
		uerr := deployer.Undeploy(placement)
		r.clusterMu.Unlock()
		if uerr != nil && err == nil {
			err = uerr
		}
	}()
	// The workload grid in its canonical order. Trial seeds derive purely
	// from the grid coordinates and results are committed in this order,
	// so the store's contents do not depend on how the grid is executed.
	type gridPoint struct {
		wr    float64
		users int
	}
	// A users expression collapses the population axis to one trial whose
	// grid coordinate is the expression's value at t = 0; the population
	// then evolves inside the trial at the observation cadence.
	usersVals := e.Workload.Users.Values()
	if e.Workload.UsersExpr != "" {
		u0, uerr := initialUsers(e, sessionCapacity(d, placement))
		if uerr != nil {
			return uerr
		}
		usersVals = []float64{float64(u0)}
	}
	var points []gridPoint
	for _, wr := range e.Workload.WriteRatioPct.Values() {
		for _, users := range usersVals {
			points = append(points, gridPoint{wr: wr, users: int(users)})
		}
	}

	workers := r.TrialParallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(points) {
		workers = len(points)
	}

	if workers <= 1 {
		for _, pt := range points {
			cfg := r.trialConfig(e, d, prof, pt.users, pt.wr)
			out, terr := r.runPoint(ctx, r.TrialCache, e, d, placement, cfg, r.TrialParallel)
			if terr != nil {
				return fmt.Errorf("experiment %s/%s u=%d w=%g: %w",
					e.Name, d.Topology, pt.users, pt.wr, terr)
			}
			r.Options.Store.Put(out.Result)
			if err := r.archive(out); err != nil {
				return err
			}
			if r.OnTrial != nil {
				r.OnTrial(out.Result)
			}
			if !out.Result.Completed && !r.KeepGoingOnFailure {
				return fmt.Errorf("experiment %s/%s u=%d w=%g failed: %s",
					e.Name, d.Topology, pt.users, pt.wr, out.Result.FailReason)
			}
		}
		return err
	}

	// Parallel grid: every point runs on the worker pool against its own
	// kernel; outcomes land in an indexed slice and are committed in grid
	// order afterwards. Errors from every failed point are collected
	// rather than only the first — which is why a trial error does not
	// stop the pool. Only the explicit abort condition (a failed trial
	// with KeepGoingOnFailure off) stops workers from picking up new
	// points. Results are committed only up to the first error or abort
	// point in grid order, matching what a sequential sweep would have
	// stored.
	outs := make([]*TrialOutcome, len(points))
	terrs := make([]error, len(points))
	var stop atomic.Bool
	jobs := make(chan int, len(points))
	for i := range points {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if stop.Load() {
					continue
				}
				cfg := r.trialConfig(e, d, prof, points[i].users, points[i].wr)
				out, terr := r.runPoint(ctx, r.TrialCache, e, d, placement, cfg, 1)
				outs[i], terrs[i] = out, terr
				if !r.KeepGoingOnFailure && out != nil && !out.Result.Completed {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	var errs []error
	storing := true
	for i, pt := range points {
		switch {
		case terrs[i] != nil:
			errs = append(errs, fmt.Errorf("experiment %s/%s u=%d w=%g: %w",
				e.Name, d.Topology, pt.users, pt.wr, terrs[i]))
			storing = false
		case outs[i] == nil:
			// Skipped after an abort elsewhere in the grid.
		case storing:
			out := outs[i]
			r.Options.Store.Put(out.Result)
			if aerr := r.archive(out); aerr != nil {
				errs = append(errs, aerr)
				storing = false
				continue
			}
			if r.OnTrial != nil {
				r.OnTrial(out.Result)
			}
			if !out.Result.Completed && !r.KeepGoingOnFailure {
				errs = append(errs, fmt.Errorf("experiment %s/%s u=%d w=%g failed: %s",
					e.Name, d.Topology, pt.users, pt.wr, out.Result.FailReason))
				storing = false
			}
		}
	}
	if joined := errors.Join(errs...); joined != nil {
		return joined
	}
	return err
}

// RunTrialAt deploys topology topo of experiment e, runs a single trial
// at the given workload point, tears down, and returns the outcome. The
// scale-out controller and ad-hoc probes use it.
func (r *Runner) RunTrialAt(e *spec.Experiment, topo spec.Topology, users int, writeRatioPct float64) (*TrialOutcome, error) {
	return r.runTrialAt(context.Background(), r.TrialCache, e, topo, users, writeRatioPct)
}

// runTrialAt is RunTrialAt against an explicit context and cache: the
// knee search passes its per-sweep fallback cache here when the runner
// has no shared one.
func (r *Runner) runTrialAt(ctx context.Context, cache TrialCache, e *spec.Experiment,
	topo spec.Topology, users int, writeRatioPct float64) (*TrialOutcome, error) {
	d, err := r.gen.GenerateOne(e, topo)
	if err != nil {
		return nil, err
	}
	cl, err := r.newCluster(e)
	if err != nil {
		return nil, err
	}
	prof, err := r.profileFor(e)
	if err != nil {
		return nil, err
	}
	deployer := deploy.NewDeployer(cl)
	r.armDeployer(deployer, prof, e, d)
	placement, err := deployer.Deploy(d)
	if err != nil {
		return nil, err
	}
	workers := r.TrialParallel
	if workers < 1 {
		workers = 1
	}
	out, terr := r.runPoint(ctx, cache, e, d, placement, r.trialConfig(e, d, prof, users, writeRatioPct), workers)
	if uerr := deployer.Undeploy(placement); uerr != nil && terr == nil {
		terr = uerr
	}
	if terr != nil {
		return nil, terr
	}
	r.Options.Store.Put(out.Result)
	if err := r.archive(out); err != nil {
		return nil, err
	}
	if r.OnTrial != nil {
		r.OnTrial(out.Result)
	}
	return out, nil
}

// archive writes a trial's raw monitor files under ArchiveDir (no-op when
// unset).
func (r *Runner) archive(out *TrialOutcome) error {
	if r.ArchiveDir == "" || out.Monitor == nil {
		return nil
	}
	k := out.Result.Key
	dir := filepath.Join(r.ArchiveDir, k.Experiment, k.Topology,
		fmt.Sprintf("u%d_w%g", k.Users, k.WriteRatioPct))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment: archive: %w", err)
	}
	for _, host := range out.Monitor.Hosts() {
		text, ok := out.Monitor.File(host)
		if !ok {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, host+".sar"), []byte(text), 0o644); err != nil {
			return fmt.Errorf("experiment: archive: %w", err)
		}
	}
	return nil
}
