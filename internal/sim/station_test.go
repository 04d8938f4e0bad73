package sim

import (
	"math"
	"math/rand/v2"
	"testing"
)

func detStation(k *Kernel, servers int, speed float64, maxJobs int) *Station {
	return NewStation(k, StationConfig{
		Name: "S", Servers: servers, Speed: speed, MaxJobs: maxJobs, Deterministic: true,
	})
}

func TestStationSingleJob(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0, 0)
	var done bool
	var svc float64
	s.Submit(0.5, func(ok bool, wait, service float64) {
		done, svc = ok, service
	})
	k.Run(1)
	if !done || svc != 0.5 {
		t.Fatalf("job not served correctly: done=%v svc=%g", done, svc)
	}
	if k.Now() < 0.5 {
		t.Fatalf("clock did not advance through service")
	}
	if s.Completed() != 1 {
		t.Fatalf("completed = %d", s.Completed())
	}
}

func TestStationSpeedScaling(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 0.2, 0) // 600 MHz vs 3 GHz reference
	var svc float64
	s.Submit(1.0, func(_ bool, _, service float64) { svc = service })
	k.Run(10)
	if math.Abs(svc-5.0) > 1e-12 {
		t.Fatalf("service = %g, want 5.0 (demand/speed)", svc)
	}
}

func TestStationFCFSQueueing(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0, 0)
	var finishOrder []int
	var waits []float64
	for i := 0; i < 3; i++ {
		i := i
		s.Submit(1.0, func(_ bool, wait, _ float64) {
			finishOrder = append(finishOrder, i)
			waits = append(waits, wait)
		})
	}
	k.Run(10)
	for i, v := range finishOrder {
		if v != i {
			t.Fatalf("not FCFS: %v", finishOrder)
		}
	}
	// deterministic 1s jobs: waits are 0, 1, 2
	for i, w := range waits {
		if math.Abs(w-float64(i)) > 1e-9 {
			t.Fatalf("wait[%d] = %g, want %d", i, w, i)
		}
	}
	if s.QueuedPeak() != 2 {
		t.Fatalf("queued peak = %d, want 2", s.QueuedPeak())
	}
}

func TestStationMultiServerParallelism(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 2, 1.0, 0)
	var finished []float64
	for i := 0; i < 4; i++ {
		s.Submit(1.0, func(_ bool, _, _ float64) { finished = append(finished, k.Now()) })
	}
	k.Run(10)
	// 2 servers, 4 deterministic 1s jobs: finish at 1,1,2,2
	want := []float64{1, 1, 2, 2}
	for i := range want {
		if math.Abs(finished[i]-want[i]) > 1e-9 {
			t.Fatalf("finish times = %v, want %v", finished, want)
		}
	}
}

func TestStationRejection(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0, 2)
	results := make([]bool, 0, 3)
	for i := 0; i < 3; i++ {
		s.Submit(1.0, func(ok bool, _, _ float64) { results = append(results, ok) })
	}
	// Third job must be rejected synchronously.
	if len(results) != 1 || results[0] != false {
		t.Fatalf("expected immediate rejection of third job, got %v", results)
	}
	k.Run(10)
	if s.Rejected() != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected())
	}
	okCount := 0
	for _, r := range results {
		if r {
			okCount++
		}
	}
	if okCount != 2 {
		t.Fatalf("ok completions = %d, want 2", okCount)
	}
}

func TestStationUtilizationAccounting(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0, 0)
	s.Submit(2.0, func(bool, float64, float64) {})
	k.Run(4) // busy 0..2, idle 2..4
	if u := s.Utilization(0); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %g, want 0.5", u)
	}
	if bt := s.BusyTime(); math.Abs(bt-2.0) > 1e-9 {
		t.Fatalf("busy time = %g, want 2.0", bt)
	}
}

func TestStationResetAccounting(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0, 0)
	s.Submit(1.0, func(bool, float64, float64) {})
	k.Run(2)
	s.ResetAccounting()
	if s.Completed() != 0 || s.BusyTime() != 0 {
		t.Fatalf("reset did not clear accounting")
	}
	// In-flight work must survive a reset.
	s.Submit(1.0, func(bool, float64, float64) {})
	k.Run(4)
	if s.Completed() != 1 {
		t.Fatalf("post-reset job lost")
	}
}

func TestStationPanicsOnBadConfig(t *testing.T) {
	k := NewKernel(1)
	for _, cfg := range []StationConfig{
		{Name: "bad", Servers: 0, Speed: 1},
		{Name: "bad", Servers: 1, Speed: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			NewStation(k, cfg)
		}()
	}
}

func TestStationStochasticServiceMean(t *testing.T) {
	k := NewKernel(99)
	s := NewStation(k, StationConfig{Name: "S", Servers: 1, Speed: 1})
	const n = 5000
	var total float64
	remaining := n
	var submit func()
	submit = func() {
		s.Submit(0.03, func(_ bool, _, service float64) {
			total += service
			remaining--
			if remaining > 0 {
				submit()
			}
		})
	}
	submit()
	k.Run(1e9)
	mean := total / n
	if math.Abs(mean-0.03) > 0.002 {
		t.Fatalf("stochastic service mean = %g, want ≈0.03", mean)
	}
}

func TestStationFailRecover(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1.0, 0)
	// A job in service survives the failure.
	var survived bool
	s.Submit(1.0, func(ok bool, _, _ float64) { survived = ok })
	s.Fail()
	if !s.Failed() {
		t.Fatalf("Failed() should report true")
	}
	rejected := false
	s.Submit(1.0, func(ok bool, _, _ float64) { rejected = !ok })
	if !rejected {
		t.Fatalf("failed station accepted a job")
	}
	k.Run(5)
	if !survived {
		t.Fatalf("in-service job should complete through the failure")
	}
	s.Recover()
	var after bool
	s.Submit(1.0, func(ok bool, _, _ float64) { after = ok })
	k.Run(10)
	if !after {
		t.Fatalf("recovered station should serve again")
	}
	if s.Rejected() != 1 {
		t.Fatalf("rejected = %d", s.Rejected())
	}
}

// TestJobFIFOOrderAndCapacity drives the shared wait queue with random
// pushes and pops against a plain slice: entries leave in arrival order,
// and the storage stays within a constant factor of the peak length.
func TestJobFIFOOrderAndCapacity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var q jobFIFO
	var ref []float64
	next := 0.0
	for step := 0; step < 200_000; step++ {
		// Drift between growing, standing and draining phases.
		pPush := 0.5 + 0.3*math.Sin(float64(step)/5000)
		if rng.Float64() < pPush {
			q.push(pendingJob{demand: next})
			ref = append(ref, next)
			next++
		} else {
			j, ok := q.pop()
			if ok != (len(ref) > 0) {
				t.Fatalf("step %d: pop ok = %v with %d queued", step, ok, len(ref))
			}
			if ok {
				if j.demand != ref[0] {
					t.Fatalf("step %d: popped %g, want %g", step, j.demand, ref[0])
				}
				ref = ref[1:]
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(ref))
		}
		if c := cap(q.buf); c > 4*q.peak+8 {
			t.Fatalf("step %d: capacity %d exceeds 4×peak+8 (peak %d)", step, c, q.peak)
		}
	}
	if q.peak < 100 {
		t.Fatalf("peak %d: the drive never built a real queue", q.peak)
	}
}

// holdStandingQueue keeps exactly depth jobs waiting in front of a
// single busy server, each completion submitting one replacement, and
// checks that 10⁵ further completions allocate nothing once the queue
// has stood for as long. A queue that only rewinds when it drains grows
// its slice by every arrival here.
func holdStandingQueue(t *testing.T, k *Kernel, submit func(float64, jobDone), q *jobFIFO) {
	t.Helper()
	const depth, jobs = 100, 100_000
	var refill completionFunc
	refill = func(bool, float64, float64) { submit(1, refill) }
	for i := 0; i <= depth; i++ {
		submit(1, refill)
	}
	allocs := testing.AllocsPerRun(3, func() { k.Run(k.Now() + jobs) })
	if allocs != 0 {
		t.Fatalf("standing queue allocates %.1f objects per %d jobs, want 0", allocs, jobs)
	}
	if q.peak != depth {
		t.Fatalf("queued peak = %d, want %d", q.peak, depth)
	}
	if c := cap(q.buf); c > 4*depth {
		t.Fatalf("queue capacity %d for a standing depth of %d", c, depth)
	}
}

func TestStationStandingQueueAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	s := detStation(k, 1, 1, 0)
	holdStandingQueue(t, k, s.submit, &s.queue)
	if s.QueuedPeak() != 100 {
		t.Fatalf("QueuedPeak = %d, want 100", s.QueuedPeak())
	}
}

func TestResourceStandingQueueAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "R/disk", 1)
	holdStandingQueue(t, k, r.submit, &r.queue)
	if r.QueuedPeak() != 100 {
		t.Fatalf("QueuedPeak = %d, want 100", r.QueuedPeak())
	}
}
