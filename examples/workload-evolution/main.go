// Workload evolution: the paper's operational use of characterization
// data (§I): "During operation of the system when workload evolves, our
// observed performance can serve as a guide to system operators and
// administrators in reconfigurations to obtain reliably the desired
// service levels."
//
// This example first characterizes a grid of RUBiS configurations, then
// walks a day-long workload trace (the many-fold peak-to-sustained swing
// the paper's introduction cites) and, for each hour, picks the smallest
// observed configuration that meets the SLO — comparing the resulting
// machine-hours against static peak provisioning.
//
//	go run ./examples/workload-evolution
package main

import (
	"fmt"
	"log"
	"math"

	"elba"
)

func main() {
	c, err := elba.New(elba.Options{TimeScale: 0.1, Parallel: 4})
	if err != nil {
		log.Fatal(err)
	}

	// Characterization pass: observe candidate configurations across the
	// workload range once; reuse the data for every planning decision.
	fmt.Println("characterizing configurations (one-time observation pass)...")
	err = c.RunTBL(`
experiment "ops" {
	benchmark rubis;
	platform  emulab;
	appserver jonas;
	topologies 1-1-1, 1-2-1, 1-3-1, 1-4-1, 1-5-1, 1-6-1, 1-7-1, 1-8-1, 1-8-2;
	workload  { users 250 to 2000 step 250; writeratio 15; }
	slo       { avg 1000ms; }
}`)
	if err != nil {
		log.Fatal(err)
	}

	// A day of workload: sustained ~500 users with an evening peak near
	// 2000 (the paper cites peak loads many times the sustained load).
	trace := make([]int, 24)
	for h := range trace {
		base := 500.0
		peak := 1500.0 * math.Exp(-math.Pow(float64(h)-20, 2)/8)
		morning := 400.0 * math.Exp(-math.Pow(float64(h)-9, 2)/6)
		users := base + peak + morning
		trace[h] = int(math.Round(users/250) * 250) // snap to observed grid
		if trace[h] < 250 {
			trace[h] = 250
		}
	}

	const sloMS = 1000
	fmt.Printf("\nhourly reconfiguration schedule (SLO: mean RT <= %d ms):\n", sloMS)
	fmt.Println("hour  users  config  machines  observed RT")
	adaptiveMachineHours := 0
	peakConfigMachines := 0
	var failed bool
	for h, users := range trace {
		topo, res, err := c.Capacity("ops", users, 15, sloMS)
		if err != nil {
			fmt.Printf("%4d  %5d  no observed configuration meets the SLO\n", h, users)
			failed = true
			continue
		}
		fmt.Printf("%4d  %5d  %-6s  %8d  %6.0f ms\n", h, users, topo, topo.Nodes(), res.AvgRTms)
		adaptiveMachineHours += topo.Nodes()
		if topo.Nodes() > peakConfigMachines {
			peakConfigMachines = topo.Nodes()
		}
	}
	if failed {
		return
	}
	staticMachineHours := peakConfigMachines * len(trace)
	fmt.Printf("\nmachine-hours: adaptive %d vs static peak provisioning %d (%.0f%% saved)\n",
		adaptiveMachineHours, staticMachineHours,
		100*(1-float64(adaptiveMachineHours)/float64(staticMachineHours)))
	fmt.Println("(static provisioning for the sustained load alone would violate the SLO at the peak —")
	fmt.Println(" the over/under-provisioning dilemma the paper's introduction describes)")

	// A transient view of the same story: hold a 1-4-1 deployment while
	// the evening surge arrives and recedes within a single run. The
	// population is a users expression of protocol time t, re-evaluated
	// at every monitor window, and the SLO assert is judged per window.
	fmt.Println("\ntransient surge on a fixed 1-4-1 deployment:")
	err = c.RunTBL(`experiment "surge" {
		benchmark rubis; platform emulab; appserver jonas;
		topology { web 1; app 4; db 1; }
		workload {
			users clamp(500 + 500*ramp((t - 100s)/20s) - 500*ramp((t - 200s)/20s), 500, 1000);
			writeratio 15;
		}
		slo { assert p90(rt) < 500ms; }
	}`)
	if err != nil {
		log.Fatal(err)
	}
	surge := c.Results().Filter(func(r elba.Result) bool { return r.Key.Experiment == "surge" })[0]
	fmt.Printf("users 500 -> 1000 over t=100-120s, back to 500 over t=200-220s: RT %.0f ms, p90 %.0f ms, X %.1f req/s\n",
		surge.AvgRTms, surge.P90ms, surge.Throughput)
	fmt.Printf("SLO %q violated in %d of %d windows; violated windows start at (s): %v\n",
		surge.SLOAssert, surge.SLOViolations, surge.SLOWindows, surge.SLOViolatedAt)
}
