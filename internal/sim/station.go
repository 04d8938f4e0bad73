package sim

import "fmt"

// Completion receives the outcome of a submitted job. ok is false when the
// station rejected the job (queue limit exceeded); wait and service report
// the time the job spent queued and in service, in seconds.
type Completion func(ok bool, wait, service float64)

// jobDone is the allocation-free form of Completion: hot-path callers
// (the n-tier request router, the RAIDb write broadcaster) implement it on
// pooled objects so a request traverses the whole tier chain without
// allocating a closure per hop.
type jobDone interface {
	jobFinished(ok bool, wait, service float64)
}

// completionFunc adapts a Completion closure to the jobDone interface.
// Converting a func value to an interface does not allocate, so the public
// Submit/Read/Write entry points cost the same as before.
type completionFunc Completion

func (f completionFunc) jobFinished(ok bool, wait, service float64) { f(ok, wait, service) }

// Station models one host resource (a server process bound to a node CPU)
// as a multi-server FCFS queue. Service demands are specified at a
// reference CPU frequency and divided by the station's speed factor, so a
// 600 MHz node (speed 0.2 against a 3 GHz reference) serves the same
// demand five times slower.
//
// A station optionally enforces a capacity limit on concurrently held
// jobs (in service + queued), modelling a server's connection/thread pool;
// jobs arriving beyond the limit are rejected. This is what makes
// overload experiments fail to complete, as the paper observes for small
// configurations at high load (Table 7's missing squares).
type Station struct {
	k       *Kernel
	name    string
	servers int
	speed   float64
	maxJobs int // 0 = unlimited
	detSvc  bool

	busy   int
	queue  jobFIFO
	failed bool
	degr   float64 // runtime degradation factor; 1 = full speed

	// slots hold in-service jobs; the kernel's actor events carry the slot
	// index, so a service completion costs no allocation.
	slots []svcSlot
	free  []int32

	// disk and net are the node's optional contended devices; requests
	// with disk/net demands queue on them around CPU service (see
	// submitRes). rpool recycles the multi-leg job trackers.
	disk  *Resource
	net   *Resource
	rpool []*resJob

	// accounting
	busyTime   float64 // integral of busy servers over time, in server-seconds
	lastChange float64
	completed  int64
	rejected   int64
}

type pendingJob struct {
	demand  float64
	arrived float64
	done    jobDone
}

// jobFIFO is the wait queue Station and Resource share, with its peak
// length since the last accounting reset. Live entries are buf[head:].
// A push into a full buffer whose head has passed half of it slides the
// live entries to the front, so append grows the buffer only while more
// than half of it is live: capacity stays within about 4× the longest
// the queue has ever been.
type jobFIFO struct {
	buf  []pendingJob
	head int
	peak int
}

func (q *jobFIFO) len() int { return len(q.buf) - q.head }

func (q *jobFIFO) push(j pendingJob) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, j)
	if n := q.len(); n > q.peak {
		q.peak = n
	}
}

// pop removes the oldest entry; ok is false when the queue is empty.
func (q *jobFIFO) pop() (j pendingJob, ok bool) {
	if q.head == len(q.buf) {
		return j, false
	}
	j = q.buf[q.head]
	q.buf[q.head] = pendingJob{}
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return j, true
}

type svcSlot struct {
	jd   jobDone
	wait float64
	svc  float64
}

// StationConfig configures a Station.
type StationConfig struct {
	// Name identifies the station in monitor output, e.g. "APP1".
	Name string
	// Servers is the number of parallel servers (CPU cores × processes).
	Servers int
	// Speed is the node's CPU frequency relative to the 3 GHz reference.
	Speed float64
	// MaxJobs caps concurrently held jobs (0 = unlimited).
	MaxJobs int
	// Deterministic disables exponential service-time sampling; demands
	// are served exactly. Used by tests and by ablation benches.
	Deterministic bool
}

// NewStation creates a station attached to kernel k. Invalid configuration
// (no servers, non-positive speed) panics: stations are constructed from
// validated deployment plans, so this indicates a bug.
func NewStation(k *Kernel, cfg StationConfig) *Station {
	if cfg.Servers <= 0 {
		panic(fmt.Sprintf("sim: station %q needs at least one server", cfg.Name))
	}
	if cfg.Speed <= 0 {
		panic(fmt.Sprintf("sim: station %q needs positive speed", cfg.Name))
	}
	return &Station{
		k:       k,
		name:    cfg.Name,
		servers: cfg.Servers,
		speed:   cfg.Speed,
		maxJobs: cfg.MaxJobs,
		detSvc:  cfg.Deterministic,
		degr:    1,
	}
}

// Name reports the station's identifier.
func (s *Station) Name() string { return s.name }

// Servers reports the number of parallel servers.
func (s *Station) Servers() int { return s.servers }

// InFlight reports jobs currently queued or in service.
func (s *Station) InFlight() int { return s.busy + s.queue.len() }

// Completed reports the number of jobs served to completion.
func (s *Station) Completed() int64 { return s.completed }

// Rejected reports the number of jobs refused due to the capacity limit.
func (s *Station) Rejected() int64 { return s.rejected }

// QueuedPeak reports the largest queue length observed.
func (s *Station) QueuedPeak() int { return s.queue.peak }

// Fail takes the station out of service: every subsequent submission is
// refused until Recover. Jobs already queued or in service complete
// normally, modelling a server whose accept queue is closed (crash-stop
// of the listener) rather than a power failure. The failure-injection
// experiments use this to observe how the deployment degrades.
func (s *Station) Fail() { s.failed = true }

// Recover returns a failed station to service.
func (s *Station) Recover() { s.failed = false }

// Failed reports whether the station is out of service.
func (s *Station) Failed() bool { return s.failed }

// SetDegradation scales the station's effective speed by f for jobs that
// start from now on: 1 restores full speed, values toward 0 model a
// slowed or stalled host (fault-injection slowdown and stall windows).
// Non-positive factors are clamped to a small floor rather than zero so
// in-flight work still drains, matching a stalled-but-alive server.
func (s *Station) SetDegradation(f float64) {
	if f <= 0 {
		f = 0.001
	}
	if f > 1 {
		f = 1
	}
	s.degr = f
}

// Degradation reports the current runtime degradation factor.
func (s *Station) Degradation() float64 { return s.degr }

// Submit offers a job with the given reference demand (seconds at the
// reference frequency). done is invoked exactly once: immediately with
// ok=false on rejection, or at service completion with ok=true.
func (s *Station) Submit(demand float64, done Completion) {
	s.submit(demand, completionFunc(done))
}

// submit is the allocation-free entry point used inside the package.
func (s *Station) submit(demand float64, done jobDone) {
	if s.failed {
		s.rejected++
		done.jobFinished(false, 0, 0)
		return
	}
	if s.maxJobs > 0 && s.busy+s.queue.len() >= s.maxJobs {
		s.rejected++
		done.jobFinished(false, 0, 0)
		return
	}
	j := pendingJob{demand: demand, arrived: s.k.Now(), done: done}
	if s.busy < s.servers {
		s.start(j)
		return
	}
	s.queue.push(j)
}

func (s *Station) start(j pendingJob) {
	s.accumulate()
	s.busy++
	svc := j.demand / (s.speed * s.degr)
	if !s.detSvc {
		svc = s.k.Exp(svc)
	}
	wait := s.k.Now() - j.arrived
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, svcSlot{})
		slot = int32(len(s.slots) - 1)
	}
	s.slots[slot] = svcSlot{jd: j.done, wait: wait, svc: svc}
	s.k.scheduleAct(svc, s, slot)
}

// act completes the service occupying the given slot. It implements the
// kernel's actor interface, so a completion event carries only the slot
// index rather than an allocated closure.
func (s *Station) act(slot int32) {
	sl := s.slots[slot]
	s.slots[slot] = svcSlot{}
	s.free = append(s.free, slot)
	s.accumulate()
	s.busy--
	s.completed++
	if next, ok := s.queue.pop(); ok {
		s.start(next)
	}
	sl.jd.jobFinished(true, sl.wait, sl.svc)
}

// accumulate folds busy-server time since the last state change into the
// busy-time integral.
func (s *Station) accumulate() {
	now := s.k.Now()
	s.busyTime += float64(s.busy) * (now - s.lastChange)
	s.lastChange = now
}

// Utilization reports the mean fraction of server capacity busy over
// [since, now]. It is the signal a monitor's CPU sampler reads.
func (s *Station) Utilization(since float64) float64 {
	s.accumulate()
	dt := s.k.Now() - since
	if dt <= 0 {
		return 0
	}
	// busyTime counts from t=0; the caller tracks its own window by
	// sampling BusyTime deltas. Utilization(since) is a convenience for
	// whole-run windows starting at `since` when no work predates it.
	return s.busyTime / (dt * float64(s.servers))
}

// BusyTime reports the cumulative busy server-seconds, for windowed
// utilization sampling: util = ΔBusyTime / (Δt × servers).
func (s *Station) BusyTime() float64 {
	s.accumulate()
	return s.busyTime
}

// ResetAccounting clears counters and the busy-time integral without
// disturbing in-flight work. The trial runner calls this at the end of the
// warm-up period so measurements cover only the run period.
func (s *Station) ResetAccounting() {
	s.accumulate()
	s.busyTime = 0
	s.completed = 0
	s.rejected = 0
	s.queue.peak = s.queue.len()
	if s.disk != nil {
		s.disk.ResetAccounting()
	}
	if s.net != nil {
		s.net.ResetAccounting()
	}
}
