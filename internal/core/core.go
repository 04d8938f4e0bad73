// Package core implements the paper's primary contribution as a library:
// observation-based performance characterization of n-tier applications.
// A Characterizer takes TBL experiment specifications, generates and
// executes them with the Mulini/deploy/experiment pipeline on the
// simulated testbed, accumulates results and generation-scale accounting,
// and renders the paper's tables and figures.
package core

import (
	"context"
	"fmt"
	"sync"

	"elba/internal/cim"
	"elba/internal/experiment"
	"elba/internal/mulini"
	"elba/internal/report"
	"elba/internal/spec"
	"elba/internal/store"
)

// Options configure a Characterizer: the run knobs, declared once in
// the experiment package.
type Options = experiment.Options

// Characterizer is the top-level engine.
type Characterizer struct {
	runner *experiment.Runner

	mu        sync.Mutex     // guards collected (OnTrial may be concurrent)
	collected map[string]int // experiment set → monitoring bytes
	scales    map[string]mulini.ScaleReport
	order     []string
}

// New creates a Characterizer.
func New(opts Options) (*Characterizer, error) {
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.Catalog == nil {
		var err error
		opts.Catalog, err = cim.LoadCatalog()
		if err != nil {
			return nil, err
		}
	}
	if opts.Store == nil {
		opts.Store = store.New()
	}
	runner, err := experiment.NewRunner(opts.Catalog, opts.Store)
	if err != nil {
		return nil, err
	}
	c := &Characterizer{
		runner:    runner,
		collected: map[string]int{},
		scales:    map[string]mulini.ScaleReport{},
	}
	onTrial := opts.OnTrial
	opts.OnTrial = func(r store.Result) {
		c.mu.Lock()
		c.collected[r.Key.Experiment] += r.CollectedBytes
		c.mu.Unlock()
		if onTrial != nil {
			onTrial(r)
		}
	}
	runner.Options = opts
	return c, nil
}

// Catalog exposes the CIM catalog (Tables 1–2).
func (c *Characterizer) Catalog() *cim.Catalog { return c.runner.Catalog() }

// Results exposes the accumulated result store.
func (c *Characterizer) Results() *store.Store { return c.runner.Store() }

// Runner exposes the underlying experiment runner for advanced use
// (scale-out control, single trials).
func (c *Characterizer) Runner() *experiment.Runner { return c.runner }

// RunTBL parses a TBL document and runs every experiment it declares.
func (c *Characterizer) RunTBL(src string) error {
	return c.RunTBLContext(context.Background(), src)
}

// RunTBLContext is RunTBL under a cancellation context: experiments run
// in declaration order until the document is done or ctx is cancelled.
func (c *Characterizer) RunTBLContext(ctx context.Context, src string) error {
	doc, err := spec.Parse(src)
	if err != nil {
		return err
	}
	for _, e := range doc.Experiments {
		if err := c.RunExperimentContext(ctx, e); err != nil {
			return err
		}
	}
	return nil
}

// RunExperiment generates, deploys, and sweeps one experiment, recording
// both the results and the Table 3 generation accounting.
func (c *Characterizer) RunExperiment(e *spec.Experiment) error {
	return c.RunExperimentContext(context.Background(), e)
}

// RunExperimentContext is RunExperiment under a cancellation context:
// the sweep stops cleanly between trials when ctx is cancelled, keeping
// every completed trial in the store.
func (c *Characterizer) RunExperimentContext(ctx context.Context, e *spec.Experiment) error {
	deployments, err := c.runner.Generator().Generate(e)
	if err != nil {
		return err
	}
	if _, seen := c.scales[e.Name]; !seen {
		c.order = append(c.order, e.Name)
	}
	c.scales[e.Name] = mulini.Scale(e, deployments)
	return c.runner.RunExperimentContext(ctx, e)
}

// GenerateBundle renders the deployment bundle for one experiment
// topology without running it — the paper's generation-only workflow for
// inspecting scripts (Tables 4–5).
func (c *Characterizer) GenerateBundle(e *spec.Experiment, topo spec.Topology) (*mulini.Deployment, error) {
	return c.runner.Generator().GenerateOne(e, topo)
}

// ScaleOut runs the paper's §V.A observation-driven scale-out loop.
func (c *Characterizer) ScaleOut(e *spec.Experiment, opts experiment.ScaleOutOptions) ([]experiment.Step, error) {
	return c.runner.ScaleOut(e, opts)
}

// ScaleRows assembles Table 3's rows for every experiment run so far, in
// execution order.
func (c *Characterizer) ScaleRows(figureOf func(set string) string) []report.ScaleRow {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rows []report.ScaleRow
	for _, name := range c.order {
		fig := ""
		if figureOf != nil {
			fig = figureOf(name)
		}
		rows = append(rows, report.ScaleRow{
			Set:            name,
			Figure:         fig,
			Scale:          c.scales[name],
			CollectedBytes: c.collected[name],
		})
	}
	return rows
}

// CollectedBytes reports the monitoring-data volume gathered for one
// experiment set.
func (c *Characterizer) CollectedBytes(set string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.collected[set]
}

// Capacity answers the paper's §V.C capacity-planning question from
// observed data: the smallest configuration (by machine count) of
// experiment set whose observed mean response time at the given workload
// meets the SLO.
func (c *Characterizer) Capacity(set string, users int, writeRatioPct, sloMS float64) (spec.Topology, store.Result, error) {
	best := spec.Topology{}
	var bestRes store.Result
	found := false
	for _, topo := range c.runner.Store().Topologies(set) {
		r, ok := c.runner.Store().Get(store.Key{
			Experiment: set, Topology: topo,
			Users: users, WriteRatioPct: writeRatioPct,
		})
		if !ok || !r.Completed || r.AvgRTms > sloMS {
			continue
		}
		t, err := spec.ParseTopology(topo)
		if err != nil {
			continue
		}
		if !found || t.Nodes() < best.Nodes() {
			best, bestRes, found = t, r, true
		}
	}
	if !found {
		return spec.Topology{}, store.Result{}, fmt.Errorf(
			"core: no observed configuration meets %g ms at %d users (w=%g%%)", sloMS, users, writeRatioPct)
	}
	return best, bestRes, nil
}
