package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"elba/internal/campaign"
	"elba/internal/cim"
	"elba/internal/core"
	"elba/internal/spec"
	"elba/internal/store"
)

// defaultTimeScale shrinks every trial to a fifth of the paper's protocol,
// which puts a cold DES campaign of the scale-out document at a few
// seconds of host time.
const defaultTimeScale = 0.2

// workload is one way of submitting the scale-out document.
type workload struct {
	name string
	// engine overrides every trial's engine (core.Options.ScalingEngine);
	// empty keeps the document's own untagged DES path.
	engine string
	// primed fills the shared cache once at set-up and re-submits the
	// same document against it, so every trial is a cache hit. Otherwise
	// each campaign gets a fresh service with a cold cache.
	primed bool
	// retain is how many finished campaigns a service holds before the
	// client moves to a fresh one (sharing a primed cache). A service
	// keeps every campaign it ran, so this bounds the heap of a run and
	// fixes the state heap_live_mb is measured in.
	retain int
	// setups is how many times the service is set up in a row: at the
	// start of a run and, for a cold workload, again for every fresh
	// service, so that setup_s, the median of all of them, samples the
	// whole run rather than its first milliseconds.
	setups int
}

var workloads = []workload{
	{name: "des-scaleout", retain: 1, setups: 25},
	{name: "fluid-scaleout", engine: "fluid", retain: 1, setups: 25},
	{name: "campaign-resubmit", primed: true, retain: 50, setups: 3},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// refEngine names the trial engine whose reference digests apply.
func (w workload) refEngine() string {
	if w.engine == "" {
		return "des"
	}
	return w.engine
}

// bench holds one run's inputs and the service under test.
type bench struct {
	w         workload
	seed      uint64
	timescale float64
	src       string
	trials    int // TrialCount summed over the document's experiments
	check     *outputCheck

	catalog *cim.Catalog
	cache   *campaign.Cache // the primed cache, shared by every service
	svc     *campaign.Service
	held    int // measured campaigns svc holds
	clock   commitClock
	setups  []time.Duration
}

func newBench(w workload, seed uint64, timescale float64, source, root string) (*bench, error) {
	doc, err := spec.Parse(scaleoutSpec)
	if err != nil {
		return nil, err
	}
	trials := 0
	for _, e := range doc.Experiments {
		trials += e.TrialCount()
	}
	check, err := newOutputCheck(w.refEngine(), seed, timescale, source, root)
	if err != nil {
		return nil, err
	}
	return &bench{w: w, seed: seed, timescale: timescale, src: scaleoutSpec, trials: trials, check: check}, nil
}

// options is the characterizer configuration every campaign runs with.
func (b *bench) options(cat *cim.Catalog) core.Options {
	return core.Options{
		TimeScale:     b.timescale,
		Parallel:      1,
		TrialParallel: 1,
		Seed:          b.seed,
		ScalingEngine: b.w.engine,
		Catalog:       cat,
		OnTrial:       b.clock.note,
	}
}

// newService starts a service; cache nil gives it a fresh, cold one.
func (b *bench) newService(cat *cim.Catalog, cache *campaign.Cache) *campaign.Service {
	return campaign.NewService(campaign.Config{Workers: 1, Cache: cache, Options: b.options(cat)})
}

// setUp makes the service ready reps times, recording each duration: the
// catalog load, the service start and, for a primed workload, one full
// campaign that fills the cache. The last service is kept.
func (b *bench) setUp(reps int) error {
	for i := 0; i < reps; i++ {
		b.close()
		start := time.Now()
		cat, err := cim.LoadCatalog()
		if err != nil {
			return err
		}
		svc := b.newService(cat, nil)
		b.catalog, b.svc, b.held = cat, svc, 0
		if b.w.primed {
			if r := b.submit(svc, false, false); r.err != nil {
				return fmt.Errorf("priming the cache: %w", r.err)
			}
			b.cache = svc.Cache()
		}
		b.setups = append(b.setups, time.Since(start))
	}
	return nil
}

// service returns the service for the next measured campaign. Once the
// current one holds retain campaigns, it is replaced: by a fresh service
// on the primed cache, or, for a cold cache, by set-ups that are timed
// like the first. live is the heap live after a forced GC taken just
// before the replacement, while the old service still holds its
// campaigns; 0 when nothing was replaced.
func (b *bench) service() (svc *campaign.Service, live uint64, err error) {
	if b.held >= b.w.retain {
		runtime.GC()
		live = readRuntime().live
		if b.w.primed {
			b.svc.Close()
			b.svc, b.held = b.newService(b.catalog, b.cache), 0
		} else if err := b.setUp(b.w.setups); err != nil {
			return nil, live, err
		}
	}
	b.held++
	return b.svc, live, nil
}

func (b *bench) close() {
	if b.svc != nil {
		b.svc.Close()
		b.svc = nil
	}
}

// campaignRun is one campaign as the client saw it.
type campaignRun struct {
	wall      time.Duration   // Submit to Done
	submit    time.Duration   // the Submit call alone
	queueWait time.Duration   // Submit's return to the worker taking the campaign
	commits   []time.Duration // each trial commit, measured from Submit
	allocs    uint64          // heap bytes allocated from Submit to Done
	counts    outputCounts
	err       error // why the campaign counts as failed
}

// submit sends the document to svc and waits for the campaign to end,
// then checks what it stored. hits says whether every trial must be a
// cache hit (else every trial must be a miss). watchQueue polls the
// campaign's status to time its wait in the queue.
func (b *bench) submit(svc *campaign.Service, hits, watchQueue bool) campaignRun {
	var r campaignRun
	before := readRuntime()
	start := time.Now()
	b.clock.reset(start)
	c, err := svc.Submit(b.src)
	r.submit = time.Since(start)
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	if watchQueue {
		for c.Status() == campaign.StatusQueued {
			runtime.Gosched()
		}
		r.queueWait = time.Since(start) - r.submit
	}
	<-c.Done()
	r.wall = time.Since(start)
	r.allocs = readRuntime().allocs - before.allocs
	r.commits = b.clock.take()
	st, err := c.Results()
	if err != nil {
		r.err = err
		return r
	}
	p := c.Progress()
	r.counts, r.err = b.verify(st, p.CacheHits, p.CacheMisses, hits)
	return r
}

// verify checks one campaign's stored results: the trial count, the
// cache behaviour the workload promises, and the result bytes.
func (b *bench) verify(st *store.Store, hits, misses uint64, allHits bool) (outputCounts, error) {
	counts := countOutput(st)
	counts.CacheHits, counts.CacheMisses = hits, misses
	if st.Len() != b.trials {
		return counts, fmt.Errorf("stored %d trials, want %d", st.Len(), b.trials)
	}
	wantHits, wantMisses := uint64(0), uint64(b.trials)
	if allHits {
		wantHits, wantMisses = wantMisses, wantHits
	}
	if hits != wantHits || misses != wantMisses {
		return counts, fmt.Errorf("%d cache hits and %d misses, want %d and %d", hits, misses, wantHits, wantMisses)
	}
	data, err := st.MarshalJSON()
	if err != nil {
		return counts, err
	}
	return counts, b.check.match(data, counts)
}

// commitClock records when each trial commits. The service calls note
// from its worker goroutine; the client reads the marks after Done.
type commitClock struct {
	mu    sync.Mutex
	start time.Time
	marks []time.Duration
}

func (c *commitClock) reset(start time.Time) {
	c.mu.Lock()
	c.start, c.marks = start, make([]time.Duration, 0, 256)
	c.mu.Unlock()
}

func (c *commitClock) note(store.Result) {
	now := time.Now()
	c.mu.Lock()
	c.marks = append(c.marks, now.Sub(c.start))
	c.mu.Unlock()
}

func (c *commitClock) take() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.marks
}

// runUntraced is the closed loop that gives the end-to-end metrics.
func (b *bench) runUntraced(window time.Duration) (report, error) {
	if err := b.setUp(b.w.setups); err != nil {
		return report{}, err
	}
	defer b.close()
	var rep report
	var ok []campaignRun
	var walls []time.Duration
	var allocs uint64
	var peakLive uint64
	committed := 0
	start := time.Now()
	for time.Since(start) < window {
		svc, live, err := b.service()
		if err != nil {
			return report{}, err
		}
		peakLive = max(peakLive, live)
		r := b.submit(svc, b.w.primed, false)
		rep.attempted++
		if r.err != nil {
			rep.fail(r.err)
			continue
		}
		ok = append(ok, r)
		walls = append(walls, r.wall)
		allocs += r.allocs
		committed += len(r.commits)
		rep.counts = r.counts
	}
	if peakLive == 0 {
		runtime.GC() // no service was replaced; measure the one in use
		peakLive = readRuntime().live
	}
	if err := b.check.finish(); err != nil {
		rep.fail(err)
	}
	rep.note("exact counts per campaign (the same for every campaign of a seed):")
	rep.lines = append(rep.lines, jsonLine("counts", rep.counts))
	rep.note(fmt.Sprintf("samples: %d campaigns, %d trial gaps, %d set-ups", len(ok), committed, len(b.setups)))
	rep.add("setup_s", median(durationsSeconds(b.setups)), "s")
	rep.add("campaign_s", median(durationsSeconds(walls)), "s")
	rep.add("trial_ms.p50", gapQuantile(ok, 0.5), "ms")
	rep.add("alloc_mb_per_trial", ratio(float64(allocs)/1e6, float64(committed)), "MB")
	rep.add("heap_live_mb", float64(peakLive)/1e6, "MB")
	return rep, nil
}

// gapQuantile is the median over campaigns of each campaign's own
// q-quantile of its trial gaps. The tail quantile used is p95, not p90: in
// a campaign-resubmit campaign the 15 gaps that include a deploy are
// exactly the top tenth of 150, so p90 would be the slowest cache lookup
// and swing with every stall of the host.
func gapQuantile(runs []campaignRun, q float64) float64 {
	qs := make([]float64, len(runs))
	for i, r := range runs {
		qs[i] = quantile(commitGaps(r.commits), q)
	}
	return median(qs)
}

// commitGaps turns commit offsets into the host time between consecutive
// commits, the first measured from Submit, in milliseconds.
func commitGaps(commits []time.Duration) []float64 {
	out := make([]float64, len(commits))
	var prev time.Duration
	for i, c := range commits {
		out[i] = float64(c-prev) / float64(time.Millisecond)
		prev = c
	}
	return out
}
