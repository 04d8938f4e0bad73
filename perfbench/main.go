// Command perfbench is the campaign benchmark. It drives campaign.Service
// in-process, the same calls elbad's HTTP handlers make, with a closed
// loop from one client: one service worker, TrialParallel 1, and the
// next document submitted only once the previous campaign is done.
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports per-layer metrics from spans the benchmark records
// around its own calls into each layer. Every campaign's stored results
// are checked against reference digests, and the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload des-scaleout --seed 1 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

//go:embed rubis-scaleout.tbl
var scaleoutSpec string

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "des-scaleout", "workload: des-scaleout, fluid-scaleout or campaign-resubmit")
	seed := fs.Uint64("seed", 1, "workload seed, used as every campaign's root seed")
	seconds := fs.Float64("seconds", 20, "how long the closed loop submits campaigns")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	timescale := fs.Float64("timescale", defaultTimeScale, "trial timescale (1.0 = the paper's full protocol)")
	root := fs.String("root", "..", "repository root; its sources are hashed into the fingerprint")
	refSeeds := fs.String("reference-seeds", "", "print reference digests for this seed range (e.g. 0-31) as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refSeeds != "" {
		return writeReference(out, *refSeeds, *timescale)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1 (got %d)", *traced)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive (got %g)", *seconds)
	}
	fp := takeFingerprint(*root)
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%d timescale=%g\n",
		w.name, *seed, *seconds, *traced, *timescale)
	fmt.Fprintln(out, jsonLine("fingerprint", fp))

	b, err := newBench(w, *seed, *timescale, fp.Source, *root)
	if err != nil {
		return err
	}
	window := time.Duration(*seconds * float64(time.Second))
	var rep report
	if *traced == 1 {
		rep, err = b.runTraced(window)
	} else {
		rep, err = b.runUntraced(window)
	}
	if err != nil {
		return err
	}
	for _, line := range rep.lines {
		fmt.Fprintln(out, line)
	}
	rep.printMetrics(out)
	enc, err := json.Marshal(rep.result())
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(enc))
	return nil
}
