package sim

import "fmt"

// Resource models one single-capacity contended device attached to a
// station's node: the disk spindle serving the tier's I/O, or the network
// link carrying the tier's ingress payloads. It is a single-server FCFS
// queue with deterministic service times — demand divided by the device's
// rate — so attaching a resource never consumes the kernel's random
// stream, and configurations without disk/net demands keep their exact
// historical event and random sequences.
//
// Demands are specified against a reference device (the disk demand in
// seconds at the reference spindle, the network demand in bytes) and the
// rate scales them to this node's hardware: a disk at 0.64× the reference
// bandwidth serves the same demand 1.56× slower, and a 100 Mbps link
// moves a payload ten times slower than a gigabit one.
type Resource struct {
	k    *Kernel
	name string
	rate float64

	busy  bool
	queue jobFIFO

	// cur holds the in-service job; single capacity means at most one, so
	// the actor event needs no slot index.
	cur svcSlot

	// accounting, mirroring Station's busy-time integral.
	busyTime   float64
	lastChange float64
	completed  int64
}

// NewResource creates a resource attached to kernel k. rate converts
// demand units to seconds of service: a speed factor for disks (demand in
// reference-disk seconds), bytes per second for links (demand in bytes).
// A non-positive rate panics: resources are constructed from validated
// platform capacities, so this indicates a bug.
func NewResource(k *Kernel, name string, rate float64) *Resource {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: resource %q needs positive rate", name))
	}
	return &Resource{k: k, name: name, rate: rate}
}

// Name reports the resource's identifier, e.g. "MYSQL1/disk".
func (r *Resource) Name() string { return r.name }

// Completed reports jobs served to completion.
func (r *Resource) Completed() int64 { return r.completed }

// QueuedPeak reports the largest queue length observed.
func (r *Resource) QueuedPeak() int { return r.queue.peak }

// InFlight reports jobs currently queued or in service.
func (r *Resource) InFlight() int {
	n := r.queue.len()
	if r.busy {
		n++
	}
	return n
}

// submit offers a job with the given demand. done always completes with
// ok=true: capacity limits and failures are modelled on the CPU station,
// which fronts every request; the attached devices only add contention.
func (r *Resource) submit(demand float64, done jobDone) {
	j := pendingJob{demand: demand, arrived: r.k.Now(), done: done}
	if !r.busy {
		r.start(j)
		return
	}
	r.queue.push(j)
}

func (r *Resource) start(j pendingJob) {
	r.accumulate()
	r.busy = true
	svc := j.demand / r.rate
	wait := r.k.Now() - j.arrived
	r.cur = svcSlot{jd: j.done, wait: wait, svc: svc}
	r.k.scheduleAct(svc, r, 0)
}

// act completes the in-service job. It implements the kernel's actor
// interface so a completion event carries no allocated closure.
func (r *Resource) act(int32) {
	sl := r.cur
	r.cur = svcSlot{}
	r.accumulate()
	r.busy = false
	r.completed++
	if next, ok := r.queue.pop(); ok {
		r.start(next)
	}
	sl.jd.jobFinished(true, sl.wait, sl.svc)
}

func (r *Resource) accumulate() {
	now := r.k.Now()
	if r.busy {
		r.busyTime += now - r.lastChange
	}
	r.lastChange = now
}

// BusyTime reports cumulative busy seconds, for windowed utilization
// sampling: util = ΔBusyTime / Δt (single capacity).
func (r *Resource) BusyTime() float64 {
	r.accumulate()
	return r.busyTime
}

// Utilization reports the mean busy fraction over [since, now].
func (r *Resource) Utilization(since float64) float64 {
	r.accumulate()
	dt := r.k.Now() - since
	if dt <= 0 {
		return 0
	}
	return r.busyTime / dt
}

// ResetAccounting clears counters and the busy-time integral without
// disturbing in-flight work, like Station.ResetAccounting.
func (r *Resource) ResetAccounting() {
	r.accumulate()
	r.busyTime = 0
	r.completed = 0
	r.queue.peak = r.queue.len()
}

// resJob sequences one request's legs across a station's contended
// resources — network link, then CPU, then disk — accumulating the
// per-leg queue waits and service times into one aggregated completion,
// so callers (the n-tier router, the RAIDb broadcaster, the tracer) see
// a single hop exactly as they would from a bare CPU station. Jobs are
// pooled on the station, keeping the multi-resource path allocation-free
// in steady state.
type resJob struct {
	s     *Station
	done  jobDone
	cpu   float64
	disk  float64
	stage int8 // 0 = network leg, 1 = CPU leg, 2 = disk leg
	wait  float64
	svc   float64
}

func (j *resJob) jobFinished(ok bool, wait, service float64) {
	j.wait += wait
	j.svc += service
	if !ok {
		// Only the CPU station can reject or fail; surface it immediately
		// with whatever time the earlier legs already spent.
		j.finish(false)
		return
	}
	switch j.stage {
	case 0: // network leg done → CPU
		j.stage = 1
		j.s.submit(j.cpu, j)
	case 1: // CPU leg done → disk, if demanded
		if j.disk > 0 && j.s.disk != nil {
			j.stage = 2
			j.s.disk.submit(j.disk, j)
			return
		}
		j.finish(true)
	default: // disk leg done
		j.finish(true)
	}
}

func (j *resJob) finish(ok bool) {
	done, wait, svc := j.done, j.wait, j.svc
	j.done = nil
	j.s.rpool = append(j.s.rpool, j)
	done.jobFinished(ok, wait, svc)
}

// AttachDisk binds a disk resource to the station's node. Requests
// submitted with a disk demand queue on it after CPU service.
func (s *Station) AttachDisk(r *Resource) { s.disk = r }

// AttachNet binds an ingress-link resource to the station's node.
// Requests submitted with a payload size queue on it before CPU service.
func (s *Station) AttachNet(r *Resource) { s.net = r }

// Disk reports the attached disk resource (nil when none).
func (s *Station) Disk() *Resource { return s.disk }

// Net reports the attached network-link resource (nil when none).
func (s *Station) Net() *Resource { return s.net }

// submitRes offers a job demanding cpu seconds (at the reference
// frequency), disk seconds (at the reference disk), and netBytes of link
// payload. Legs the request does not demand — or the station has no
// device for — are skipped; a request with neither disk nor network
// demand takes the exact historical submit path, so zero-demand
// configurations stay event- and allocation-identical.
func (s *Station) submitRes(cpu, disk, netBytes float64, done jobDone) {
	netLeg := netBytes > 0 && s.net != nil
	diskLeg := disk > 0 && s.disk != nil
	if !netLeg && !diskLeg {
		s.submit(cpu, done)
		return
	}
	var j *resJob
	if n := len(s.rpool); n > 0 {
		j = s.rpool[n-1]
		s.rpool = s.rpool[:n-1]
	} else {
		j = &resJob{s: s}
	}
	j.done = done
	j.cpu = cpu
	j.disk = disk
	j.wait, j.svc = 0, 0
	if netLeg {
		j.stage = 0
		s.net.submit(netBytes, j)
		return
	}
	j.stage = 1
	s.submit(cpu, j)
}

// SubmitRes is the exported form of submitRes for callers outside the
// package (tests, ablation benches).
func (s *Station) SubmitRes(cpu, disk, netBytes float64, done Completion) {
	s.submitRes(cpu, disk, netBytes, completionFunc(done))
}
