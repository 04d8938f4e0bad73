package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"elba/internal/campaign"
	"elba/internal/cim"
	"elba/internal/cluster"
	"elba/internal/core"
	"elba/internal/deploy"
	"elba/internal/experiment"
	"elba/internal/mulini"
	"elba/internal/spec"
	"elba/internal/store"
)

// generateCallsPerExperiment is how many times a campaign renders each
// experiment's deployments: core.Characterizer.RunExperimentContext
// generates once for its scale accounting and experiment.Runner's
// RunExperimentContext once more for the sweep. The glue estimate
// charges the standalone Generate time this many times.
const generateCallsPerExperiment = 2

// campaignSpans are the spans one campaign's trial cache saw.
type campaignSpans struct {
	lookups      []time.Duration // each Do minus its compute callback
	desBodies    []time.Duration // compute callbacks of DES trials
	fluidBodies  []time.Duration // compute callbacks of fluid trials
	hits, misses int
	desRequests  int64 // Result.Requests of freshly simulated DES trials
	simRequests  int64 // Result.Requests of every freshly simulated trial
	monitorBytes int64 // Result.CollectedBytes of every freshly simulated trial
}

// add accumulates another campaign's spans and counts.
func (s *campaignSpans) add(o campaignSpans) {
	s.lookups = append(s.lookups, o.lookups...)
	s.desBodies = append(s.desBodies, o.desBodies...)
	s.fluidBodies = append(s.fluidBodies, o.fluidBodies...)
	s.hits += o.hits
	s.misses += o.misses
	s.desRequests += o.desRequests
	s.simRequests += o.simRequests
	s.monitorBytes += o.monitorBytes
}

func (s *campaignSpans) covered() time.Duration {
	var d time.Duration
	for _, xs := range [][]time.Duration{s.lookups, s.desBodies, s.fluidBodies} {
		for _, x := range xs {
			d += x
		}
	}
	return d
}

// timedCache wraps the shared trial cache. It splits each Do into the
// lookup and the compute callback, which is the trial body, and files
// the body under the engine named by the trial key.
type timedCache struct {
	inner experiment.TrialCache
	mu    sync.Mutex
	spans campaignSpans
}

func (t *timedCache) Do(k experiment.TrialKey, compute func() (store.Result, error)) (store.Result, bool, error) {
	var body time.Duration
	var fresh *store.Result
	start := time.Now()
	res, hit, err := t.inner.Do(k, func() (store.Result, error) {
		b0 := time.Now()
		r, err := compute()
		body = time.Since(b0)
		if err == nil {
			fresh = &r
		}
		return r, err
	})
	total := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans
	s.lookups = append(s.lookups, total-body)
	if body > 0 {
		if k.Engine == "fluid" {
			s.fluidBodies = append(s.fluidBodies, body)
		} else {
			s.desBodies = append(s.desBodies, body)
		}
	}
	if fresh != nil {
		if k.Engine != "fluid" {
			s.desRequests += fresh.Requests
		}
		s.simRequests += fresh.Requests
		s.monitorBytes += int64(fresh.CollectedBytes)
	}
	switch {
	case err != nil:
	case hit:
		s.hits++
	default:
		s.misses++
	}
	return res, hit, err
}

// layerTimes are the standalone timings of the layers a campaign calls
// before its trials: parse, generate, and deploy plus undeploy.
type layerTimes struct {
	parse, generate, deploy time.Duration
	artifacts, retries      int
}

// layerProbe times spec.Parse, mulini Generate and deploy Deploy/Undeploy
// by calling them on the workload's own experiments.
type layerProbe struct {
	cat   *cim.Catalog
	gen   *mulini.Generator
	steps int // elbactl steps of every topology's run.sh
}

func newLayerProbe(cat *cim.Catalog, src string) (*layerProbe, error) {
	gen, err := mulini.NewGenerator(cat, nil)
	if err != nil {
		return nil, err
	}
	p := &layerProbe{cat: cat, gen: gen}
	doc, err := spec.Parse(src)
	if err != nil {
		return nil, err
	}
	for _, e := range doc.Experiments {
		ds, err := gen.Generate(e)
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			cl, err := p.cluster(e)
			if err != nil {
				return nil, err
			}
			eng := deploy.NewEngine(cl)
			if err := eng.Execute(d.Bundle, "run.sh"); err != nil {
				return nil, err
			}
			p.steps += eng.Steps()
		}
	}
	return p, nil
}

func (p *layerProbe) cluster(e *spec.Experiment) (*cluster.Cluster, error) {
	platform, ok := p.cat.PlatformByName(e.Platform)
	if !ok {
		return nil, fmt.Errorf("platform %q not in catalog", e.Platform)
	}
	return cluster.New(platform)
}

func (p *layerProbe) time(src string) (layerTimes, error) {
	var lt layerTimes
	start := time.Now()
	doc, err := spec.Parse(src)
	lt.parse = time.Since(start)
	if err != nil {
		return lt, err
	}
	for _, e := range doc.Experiments {
		start = time.Now()
		ds, err := p.gen.Generate(e)
		lt.generate += time.Since(start)
		if err != nil {
			return lt, err
		}
		cl, err := p.cluster(e)
		if err != nil {
			return lt, err
		}
		for _, d := range ds {
			lt.artifacts += d.Bundle.Len()
			dp := deploy.NewDeployer(cl)
			start = time.Now()
			pl, err := dp.Deploy(d)
			if err == nil {
				err = dp.Undeploy(pl)
			}
			lt.deploy += time.Since(start)
			if err != nil {
				return lt, err
			}
			lt.retries += pl.Retries
		}
	}
	return lt, nil
}

// runWrapped runs one campaign the way campaign.Service's worker does —
// a fresh store, the shared cache, core.New and RunExperimentContext for
// each experiment — with the timing wrapper around the cache. The
// service fixes its own cache, so the wrapper cannot go through it.
func (b *bench) runWrapped() (campaignRun, campaignSpans) {
	var inner experiment.TrialCache = campaign.NewCache()
	if b.w.primed {
		inner = b.cache
	}
	tc := &timedCache{inner: inner}
	opts := b.options(b.catalog)
	opts.Store = store.New()
	opts.TrialCache = tc

	var r campaignRun
	before := readRuntime()
	start := time.Now()
	b.clock.reset(start)
	r.err = func() error {
		doc, err := spec.Parse(b.src)
		if err != nil {
			return err
		}
		char, err := core.New(opts)
		if err != nil {
			return err
		}
		for _, e := range doc.Experiments {
			if err := char.RunExperimentContext(context.Background(), e); err != nil {
				return err
			}
		}
		r.wall = time.Since(start)
		r.allocs = readRuntime().allocs - before.allocs
		r.commits = b.clock.take()
		r.counts, err = b.verify(char.Results(), char.Runner().CacheHits(), char.Runner().CacheMisses(), b.w.primed)
		return err
	}()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return r, tc.spans
}

// runTraced alternates two kinds of campaign in one closed loop: through
// the service, timing Submit and the queue wait, and through the wrapped
// cache, after timing parse, generate and deploy standalone. The service
// campaigns carry no spans, so their campaign time is the untraced
// reference for the tracing overhead.
func (b *bench) runTraced(window time.Duration) (report, error) {
	if err := b.setUp(1); err != nil {
		return report{}, err
	}
	defer b.close()
	probe, err := newLayerProbe(b.catalog, b.src)
	if err != nil {
		return report{}, err
	}
	var rep report
	var plain []campaignRun
	var plainWalls, submits, queueWaits []time.Duration
	var wrappedWalls, glue []time.Duration
	var parses, generates, deploys []time.Duration
	var all campaignSpans
	var lt layerTimes
	var gcCPU float64
	wrapped := 0
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < window; i++ { // at least one campaign of each kind
		rep.attempted++
		if i%2 == 0 {
			svc, _, err := b.service()
			if err != nil {
				return report{}, err
			}
			r := b.submit(svc, b.w.primed, true)
			if r.err != nil {
				rep.fail(r.err)
				continue
			}
			plain = append(plain, r)
			plainWalls = append(plainWalls, r.wall)
			submits = append(submits, r.submit)
			queueWaits = append(queueWaits, r.queueWait)
			continue
		}
		if lt, err = probe.time(b.src); err != nil {
			return report{}, err
		}
		parses = append(parses, lt.parse)
		generates = append(generates, lt.generate)
		deploys = append(deploys, lt.deploy)
		gc0 := readRuntime().gcCPU
		r, s := b.runWrapped()
		if r.err != nil {
			rep.fail(r.err)
			continue
		}
		gcCPU += readRuntime().gcCPU - gc0
		wrapped++
		rep.counts = r.counts
		wrappedWalls = append(wrappedWalls, r.wall)
		glue = append(glue, r.wall-s.covered()-generateCallsPerExperiment*lt.generate-lt.deploy)
		all.add(s)
	}
	if err := b.check.finish(); err != nil {
		rep.fail(err)
	}
	if wrapped == 0 || len(plainWalls) == 0 {
		rep.fail(fmt.Errorf("traced run finished %d wrapped and %d service campaigns; it needs one of each", wrapped, len(plainWalls)))
	}

	lookups := microseconds(all.lookups)
	desBodies := durationsMS(all.desBodies)
	fluidBodies := durationsMS(all.fluidBodies)
	fresh := len(all.desBodies) + len(all.fluidBodies)
	perCampaign := func(n float64) float64 { return ratio(n, float64(wrapped)) }
	rep.lines = append(rep.lines, jsonLine("counts", rep.counts))
	rep.note(fmt.Sprintf("samples: %d service campaigns, %d wrapped campaigns, %d lookups, %d DES bodies, %d fluid bodies",
		len(plainWalls), wrapped, len(lookups), len(desBodies), len(fluidBodies)))
	rep.lines = append(rep.lines, selfTimeLines(wrappedWalls, all, generates, deploys)...)

	plainMedian := median(durationsSeconds(plainWalls))
	committed := 0
	for _, r := range plain {
		committed += len(r.commits)
	}
	rep.add("campaign.trial_ms.p95", gapQuantile(plain, 0.95), "ms")
	rep.add("campaign.trials_per_s", ratio(float64(committed), sumSeconds(plainWalls)), "1/s")
	rep.add("spec.parse_ms", median(durationsMS(parses)), "ms")
	rep.add("campaign.submit_ms", median(durationsMS(submits)), "ms")
	rep.add("campaign.queue_wait_ms", median(durationsMS(queueWaits)), "ms")
	rep.add("mulini.generate_ms", median(durationsMS(generates)), "ms")
	rep.add("mulini.artifacts", float64(lt.artifacts), "count")
	rep.add("deploy.deploy_ms", median(durationsMS(deploys)), "ms")
	rep.add("deploy.steps", float64(probe.steps), "count")
	rep.add("deploy.retries", float64(lt.retries), "count")
	rep.add("campaign.lookup_us.p50", quantile(lookups, 0.5), "us")
	rep.add("campaign.lookup_us.p90", quantile(lookups, 0.9), "us")
	rep.add("campaign.hits", perCampaign(float64(all.hits)), "count")
	rep.add("campaign.misses", perCampaign(float64(all.misses)), "count")
	rep.add("campaign.hit_ratio", ratio(float64(all.hits), float64(all.hits+all.misses)), "ratio")
	rep.add("experiment.des_trial_ms.p50", quantile(desBodies, 0.5), "ms")
	rep.add("experiment.des_trial_ms.p90", quantile(desBodies, 0.9), "ms")
	rep.add("sim.requests", perCampaign(float64(all.desRequests)), "count")
	rep.add("sim.requests_per_trial_s", ratio(float64(all.desRequests), sumSeconds(all.desBodies)), "1/s")
	rep.add("sim.requests_per_s", ratio(perCampaign(float64(all.simRequests)), plainMedian), "1/s")
	rep.add("experiment.fluid_trial_ms.p50", quantile(fluidBodies, 0.5), "ms")
	rep.add("experiment.fluid_trial_ms.p90", quantile(fluidBodies, 0.9), "ms")
	rep.add("fluid.trials", perCampaign(float64(len(all.fluidBodies))), "count")
	rep.add("monitor.bytes", perCampaign(float64(all.monitorBytes)), "bytes")
	rep.add("monitor.bytes_per_trial", ratio(float64(all.monitorBytes), float64(fresh)), "bytes")
	rep.add("experiment.completed_trials", float64(rep.counts.Completed), "count")
	rep.add("experiment.failed_trials", float64(rep.counts.Failed), "count")
	rep.add("experiment.glue_ms", median(durationsMS(glue)), "ms")
	rep.add("runtime.gc_cpu_s", ratio(gcCPU, float64(wrapped)), "s")
	rep.add("trace.overhead_pct", 100*(median(pairRatios(wrappedWalls, plainWalls))-1), "%")
	return rep, nil
}

// selfTimeLines attributes the wrapped campaigns' host time to layers:
// cache lookup and trial bodies as measured inside the campaigns,
// generate and deploy from the standalone timings, and the rest to glue.
func selfTimeLines(walls []time.Duration, all campaignSpans, generates, deploys []time.Duration) []string {
	total := sumSeconds(walls)
	gen := generateCallsPerExperiment * sumSeconds(generates)
	dep := sumSeconds(deploys)
	layers := []struct {
		name string
		sec  float64
	}{
		{"campaign.lookup", sumSeconds(all.lookups)},
		{"experiment.des_trial", sumSeconds(all.desBodies)},
		{"experiment.fluid_trial", sumSeconds(all.fluidBodies)},
		{"mulini.generate", gen},
		{"deploy.deploy", dep},
	}
	glue := total
	shares := map[string]float64{}
	lines := []string{"self time of the wrapped campaigns, share of campaign time:"}
	for _, l := range layers {
		glue -= l.sec
		shares[l.name] = 100 * ratio(l.sec, total)
		lines = append(lines, fmt.Sprintf("  %-24s %6.2f%%", l.name, shares[l.name]))
	}
	shares["experiment.glue"] = 100 * ratio(glue, total)
	lines = append(lines, fmt.Sprintf("  %-24s %6.2f%%", "experiment.glue", shares["experiment.glue"]))
	return append(lines, jsonLine("shares", shares))
}

// pairRatios divides each wrapped campaign's time by that of the service
// campaign just before it, so a change in the machine's speed during the
// run cancels out of the tracing overhead.
func pairRatios(wrapped, plain []time.Duration) []float64 {
	n := min(len(wrapped), len(plain))
	out := make([]float64, n)
	for i := range out {
		out[i] = ratio(wrapped[i].Seconds(), plain[i].Seconds())
	}
	return out
}

func sumSeconds(ds []time.Duration) float64 {
	var d time.Duration
	for _, x := range ds {
		d += x
	}
	return d.Seconds()
}

func microseconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}
