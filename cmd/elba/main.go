// Command elba runs TBL experiment sets end to end on the simulated
// testbed: generation, deployment, trial sweeps, monitoring, and result
// storage, printing one line per trial and a summary table per
// experiment.
//
// Usage:
//
//	elba [-timescale F] [-json results.json] [-csv results.csv] SPEC.tbl
//	elba -suite reduced                 # run a built-in suite
//	elba -scaleout -spec SPEC.tbl       # run the §V.A scale-out loop
//	elba -cachedir DIR SPEC.tbl         # memoize trials across runs
//	elba -stream SPEC.tbl               # live knee/SLO detection + folded tables
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sync"

	"elba/internal/bottleneck"
	"elba/internal/campaign"
	"elba/internal/core"
	"elba/internal/experiment"
	"elba/internal/report"
	"elba/internal/spec"
	"elba/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "elba:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("elba", flag.ContinueOnError)
	knobs := core.Flags(fs)
	jsonOut := fs.String("json", "", "write the result store as JSON to this file")
	csvOut := fs.String("csv", "", "write the result store as CSV to this file")
	suite := fs.String("suite", "", "run a built-in suite: paper or reduced")
	archive := fs.String("archive", "", "store raw per-host monitor output under this directory")
	traceRate := fs.Float64("trace", 0, "head-sample this fraction of measured requests into span traces (0 = off)")
	traceExemplars := fs.Int("traceexemplars", 3, "slowest traces persisted in full per traced trial")
	traceOut := fs.String("traceout", "", "write exemplar traces as Chrome trace-event JSON to this file (requires -trace)")
	resources := fs.Bool("resources", false, "render the per-tier resource-utilization table per configuration")
	policies := fs.Bool("policies", false, "render the autoscaling timeline table per experiment with scale events")
	cacheDir := fs.String("cachedir", "", "memoize trials content-addressed under this directory; repeat runs and overlapping sweeps replay cached results")
	stream := fs.Bool("stream", false, "stream the run: per-trial RT sketches, live knee/SLO detection lines, folded tables at the end")
	resultLog := fs.String("resultlog", "", "append every committed result to this crash-safe log file (implies -stream)")
	scaleout := fs.Bool("scaleout", false, "run the observation-driven scale-out loop instead of a sweep")
	sloMS := fs.Float64("slo", 1000, "scale-out response-time objective in ms")
	maxUsers := fs.Int("maxusers", 2900, "scale-out workload bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := knobs()
	if err != nil {
		return err
	}

	var src string
	switch {
	case *suite == "paper":
		src = core.PaperSuite()
	case *suite == "reduced":
		src = core.ReducedSuite()
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	default:
		return fmt.Errorf("usage: elba [flags] SPEC.tbl (or -suite paper|reduced)")
	}

	var cache *campaign.Cache
	var trialCache experiment.TrialCache
	if *cacheDir != "" {
		opened, err := campaign.OpenCache(*cacheDir)
		if err != nil {
			return err
		}
		cache, trialCache = opened, opened
	}

	// Streaming: fold every committed result into running tables online,
	// print detections (knee, SLO onset, first failure) the moment their
	// trial lands, and optionally append each result to a crash-safe log.
	// The fold mutex serializes OnTrial, which may fire concurrently.
	streaming := *stream || *resultLog != ""
	var folder *report.Folder
	var rlog *campaign.ResultLog
	var foldMu sync.Mutex
	if streaming {
		folder = report.NewFolder()
		if *resultLog != "" {
			opened, err := campaign.OpenResultLog(*resultLog)
			if err != nil {
				return err
			}
			rlog = opened
			defer rlog.Close()
		}
	}

	opts.TrialCache = trialCache
	opts.TraceRate = *traceRate
	opts.TraceExemplars = *traceExemplars
	opts.SketchRT = streaming
	opts.OnTrial = func(r store.Result) {
		status := "ok"
		if !r.Completed {
			status = "FAILED: " + r.FailReason
		}
		fmt.Printf("  %-40s rt=%7.1fms x=%7.1f/s app=%5.1f%% db=%5.1f%% %s\n",
			r.Key.String(), r.AvgRTms, r.Throughput,
			r.TierCPU["app"], r.TierCPU["db"], status)
		if streaming {
			foldMu.Lock()
			if rlog != nil {
				if err := rlog.Append(r); err != nil {
					fmt.Fprintln(os.Stderr, "elba: result log:", err)
				}
			}
			for _, ev := range folder.Ingest(r) {
				fmt.Printf("  >> %s\n", ev.Message)
			}
			foldMu.Unlock()
		}
	}
	c, err := core.New(opts)
	if err != nil {
		return err
	}

	doc, err := spec.Parse(src)
	if err != nil {
		return err
	}
	if *archive != "" {
		c.Runner().ArchiveDir = *archive
	}

	if *scaleout {
		return runScaleout(c, doc, *sloMS, *maxUsers)
	}

	for _, e := range doc.Experiments {
		fmt.Printf("running experiment %q: %d trials across %d configuration(s)\n",
			e.Name, e.TrialCount(), len(e.AllTopologies()))
		if err := c.RunExperiment(e); err != nil {
			return err
		}
	}

	fmt.Println()
	fmt.Print(report.Table3Scale(c.ScaleRows(core.FigureOf)))

	if streaming {
		foldMu.Lock()
		tables := folder.Tables()
		foldMu.Unlock()
		fmt.Println()
		fmt.Print(tables)
		if rlog != nil {
			fmt.Printf("\nresult log %s: %d records\n", rlog.Path(), rlog.Len())
		}
	}

	if cache != nil {
		fmt.Printf("\ntrial cache %s: %s (this run: %d hits, %d misses)\n",
			cache.Dir(), cache.Stats(), c.Runner().CacheHits(), c.Runner().CacheMisses())
	}

	// Render the availability table for every experiment that ran under a
	// fault profile (via -faults or its own TBL declaration).
	for _, e := range doc.Experiments {
		faulted := c.Results().Filter(func(r store.Result) bool {
			return r.Key.Experiment == e.Name && r.FaultProfile != ""
		})
		if len(faulted) > 0 {
			fmt.Println()
			fmt.Print(report.TableAvailability(c.Results(), e.Name))
		}
	}

	// Render the engine-provenance table for every experiment with at
	// least one trial handled by a non-default engine (via -scaling or the
	// spec's own scaling clause).
	for _, e := range doc.Experiments {
		tagged := c.Results().Filter(func(r store.Result) bool {
			return r.Key.Experiment == e.Name && r.Engine != ""
		})
		if len(tagged) > 0 {
			fmt.Println()
			fmt.Print(report.TableEngineSummary(c.Results(), e.Name))
		}
	}

	// Render the SLO-verdict table for every experiment whose spec carries
	// an assert expression.
	for _, e := range doc.Experiments {
		asserted := c.Results().Filter(func(r store.Result) bool {
			return r.Key.Experiment == e.Name && r.SLOAssert != ""
		})
		if len(asserted) > 0 {
			fmt.Println()
			fmt.Print(report.TableSLO(c.Results(), e.Name))
		}
	}

	// Render the autoscaling timeline for every experiment whose trials
	// recorded policy firings.
	if *policies {
		for _, e := range doc.Experiments {
			scaled := c.Results().Filter(func(r store.Result) bool {
				return r.Key.Experiment == e.Name && len(r.ScaleEvents) > 0
			})
			if len(scaled) > 0 {
				fmt.Println()
				fmt.Print(report.TableScaling(c.Results(), e.Name))
			}
		}
	}

	// Render the per-tier resource-utilization table for every sweep when
	// asked: one table per (experiment, topology, write ratio).
	if *resources {
		for _, e := range doc.Experiments {
			for _, topo := range c.Results().Topologies(e.Name) {
				seen := map[float64]bool{}
				for _, r := range c.Results().Filter(func(r store.Result) bool {
					return r.Key.Experiment == e.Name && r.Key.Topology == topo
				}) {
					if seen[r.Key.WriteRatioPct] {
						continue
					}
					seen[r.Key.WriteRatioPct] = true
					fmt.Println()
					fmt.Print(report.TableResourceUtilization(c.Results(), e.Name, topo, r.Key.WriteRatioPct))
				}
			}
		}
	}

	// Render the trace tables for every experiment that ran with tracing,
	// and optionally export the exemplars for chrome://tracing.
	if *traceRate > 0 {
		for _, e := range doc.Experiments {
			traced := c.Results().Filter(func(r store.Result) bool {
				return r.Key.Experiment == e.Name && r.Trace != nil
			})
			if len(traced) == 0 {
				continue
			}
			fmt.Println()
			fmt.Print(report.TableTraceDecomp(c.Results(), e.Name))
			fmt.Println()
			fmt.Print(report.TableTraceVerdict(c.Results(), e.Name, bottleneck.DefaultThresholds))
		}
		if *traceOut != "" {
			names := make([]string, len(doc.Experiments))
			for i, e := range doc.Experiments {
				names[i] = e.Name
			}
			data, err := report.TraceEventsJSON(c.Results(), names...)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *traceOut)
		}
	}

	if *jsonOut != "" {
		if err := writeStoreJSON(*jsonOut, c.Results()); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d results)\n", *jsonOut, c.Results().Len())
	}
	if *csvOut != "" {
		if err := os.WriteFile(*csvOut, []byte(c.Results().CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvOut)
	}
	return nil
}

// writeStoreJSON streams the result store's canonical JSON into path.
func writeStoreJSON(path string, st *store.Store) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := st.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runScaleout(c *core.Characterizer, doc *spec.Document, sloMS float64, maxUsers int) error {
	for _, e := range doc.Experiments {
		fmt.Printf("scale-out loop for %q (SLO %.0f ms, up to %d users)\n", e.Name, sloMS, maxUsers)
		steps, err := c.ScaleOut(e, experiment.ScaleOutOptions{
			SLOms:    sloMS,
			MaxUsers: maxUsers,
		})
		if err != nil {
			return err
		}
		t := report.NewTable("", "Step", "Config", "Users", "Avg RT (ms)", "Bottleneck", "Action", "Note")
		for i, s := range steps {
			rt := fmt.Sprintf("%.0f", s.AvgRTms)
			if !s.Completed {
				rt = "failed"
			}
			bott := s.Verdict.Tier
			if s.Verdict.Resource != "" && s.Verdict.Resource != "cpu" {
				bott += "/" + s.Verdict.Resource
			}
			t.AddRow(fmt.Sprint(i+1), s.Topology.String(), fmt.Sprint(s.Users),
				rt, bott, string(s.Action), s.Note)
		}
		fmt.Print(t.String())
	}
	return nil
}
