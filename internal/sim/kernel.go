// Package sim implements the discrete-event simulation substrate on which
// Elba experiments run in place of a physical cluster. It provides an
// event kernel, multi-server queueing stations with frequency-scaled
// service rates, tiers with pluggable load balancing, a C-JDBC-style
// RAIDb-1 replicated database tier, and a closed-loop client driver that
// executes benchmark workload models.
//
// The design follows the paper's measurement setting: a closed queueing
// network where each emulated user alternates between thinking and issuing
// an interaction that traverses web, application, and database tiers. All
// state lives inside the kernel; no goroutines are used, so trials are
// fully deterministic for a given seed. Because a kernel is single-owner,
// many trials can run concurrently on separate kernels without any
// synchronization — the experiment runner's trial parallelism relies on
// this.
package sim

import (
	"fmt"
	"math/rand/v2"
)

// The pending-event set is split in two. The heap orders 16-byte,
// pointer-free slots: the time an event is due and a packed key whose
// high bits hold the schedule sequence (the FIFO tie-break between events
// at the same instant) and whose low bits index the payload slab. Four
// siblings span 64 bytes, and the garbage collector never scans the heap.
// The slab holds what an event does: a closure, or an actor/tag pair,
// which lets hot-path components (stations, drivers) receive their
// completions without allocating a closure per event. Slab entries freed
// by fired events are reused through a free list threaded through the
// slab itself, so the slab never grows past the peak pending count and
// scheduling allocates nothing beyond amortized slice growth.
//
// The packed key bounds one kernel to 2^24 (about 16.8 million) pending
// events and 2^40 (about 1.1 trillion) scheduled events over its life.
// Exceeding either panics; the order is never silently wrong.
const (
	slabBits   = 24
	slabMask   = 1<<slabBits - 1
	maxPending = 1 << slabBits
	maxSeq     = 1<<(64-slabBits) - 1
)

// slot is one heap entry. Since every schedule gets a fresh sequence
// number, (at, key) orders events exactly as (at, seq) would.
type slot struct {
	at  float64
	key uint64 // seq<<slabBits | slab index
}

// payload is what a pending event does: fn, or act.act(tag). next links
// free entries; it holds the index+1 of the next free entry, 0 ending
// the list.
type payload struct {
	fn   func()
	act  actor
	tag  int32
	next int32
}

// actor is implemented by simulation components that receive scheduled
// events without per-event closures. The tag disambiguates what the event
// means to the receiver (e.g. which service slot completed).
type actor interface {
	act(tag int32)
}

// Kernel is a discrete-event simulation executive. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now   float64
	seq   uint64
	heap  []slot    // 4-ary min-heap ordered by (at, key)
	slab  []payload // indexed by the low bits of a slot's key
	free  int32     // index+1 of the first free slab entry; 0 when none
	rng   *rand.Rand
	fired int64
}

// NewKernel creates a kernel whose random stream is seeded
// deterministically from seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Now reports the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Events reports how many events have fired so far, which the benchmarks
// use as a work metric.
func (k *Kernel) Events() int64 { return k.fired }

// Rand exposes the kernel's deterministic random stream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Schedule arranges for fn to run delay seconds from now. A negative delay
// is treated as zero (run as soon as the current event completes).
func (k *Kernel) Schedule(delay float64, fn func()) {
	k.push(delay, payload{fn: fn})
}

// scheduleAct arranges for a.act(tag) to run delay seconds from now. It is
// the allocation-free fast path used by stations and drivers.
func (k *Kernel) scheduleAct(delay float64, a actor, tag int32) {
	k.push(delay, payload{act: a, tag: tag})
}

// heapArity is the branching factor of the pending-event heap. A 4-ary
// heap halves the tree depth of a binary heap, and with 16-byte slots a
// node's four children span 64 bytes, one or two cache lines, so the
// comparisons that pick the smallest child touch little memory. pop's
// tournament over a full sibling group is written for four children.
const heapArity = 4

func slotLess(a, b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// push stores p in the slab and sifts its slot up from a hole at the end
// of the heap.
func (k *Kernel) push(delay float64, p payload) {
	if delay < 0 {
		delay = 0
	}
	if k.seq == maxSeq {
		panic(fmt.Sprintf("sim: kernel scheduled more than %d events", uint64(maxSeq)))
	}
	k.seq++
	var idx int32
	if k.free != 0 {
		idx = k.free - 1
		k.free = k.slab[idx].next
		k.slab[idx] = p
	} else {
		if len(k.slab) == cap(k.slab) {
			k.grow()
		}
		idx = int32(len(k.slab))
		k.slab = append(k.slab, p)
	}
	s := slot{at: k.now + delay, key: k.seq<<slabBits | uint64(idx)}
	h := append(k.heap, slot{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !slotLess(s, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = s
	k.heap = h
}

// grow enlarges the slab and the heap together. The heap never holds more
// slots than the slab has entries, so it never grows on its own. The
// first allocation holds four entries, enough for a kernel that only
// paces a monitor, as under the fluid engine; the second jumps to 64, so
// a DES population reaches its size in few allocations; after that the
// capacity doubles.
func (k *Kernel) grow() {
	n := 2 * cap(k.slab)
	switch {
	case n == 0:
		n = 4
	case n < 64:
		n = 64
	}
	if n > maxPending {
		if len(k.slab) == maxPending {
			panic(fmt.Sprintf("sim: kernel holds more than %d pending events", maxPending))
		}
		n = maxPending
	}
	slab := make([]payload, len(k.slab), n)
	copy(slab, k.slab)
	heap := make([]slot, len(k.heap), n)
	copy(heap, k.heap)
	k.slab, k.heap = slab, heap
}

// pop removes the earliest slot, sifting the last slot down from a hole
// at the root, and returns its time and payload. The payload's slab entry
// is zeroed, releasing its closure or actor, and put on the free list.
func (k *Kernel) pop() (float64, payload) {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	k.heap = h
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		m := first
		if first+heapArity <= n {
			// A full sibling group: a two-round tournament, whose first
			// round's comparisons are independent of each other.
			g := (*[heapArity]slot)(h[first:])
			a, b := 0, 2
			if slotLess(g[1], g[0]) {
				a = 1
			}
			if slotLess(g[3], g[2]) {
				b = 3
			}
			if slotLess(g[b], g[a]) {
				a = b
			}
			m += a
		} else {
			for c := first + 1; c < n; c++ {
				if slotLess(h[c], h[m]) {
					m = c
				}
			}
		}
		if !slotLess(h[m], last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	idx := int32(top.key & slabMask)
	p := k.slab[idx]
	k.slab[idx] = payload{next: k.free}
	k.free = idx + 1
	return top.at, p
}

// dispatch fires one event at time at.
func (k *Kernel) dispatch(at float64, p payload) {
	k.now = at
	k.fired++
	if p.act != nil {
		p.act.act(p.tag)
		return
	}
	p.fn()
}

// Run executes events until the simulated clock reaches until seconds or
// no events remain. The clock is left at until (or at the last event time
// when the queue empties first).
func (k *Kernel) Run(until float64) {
	for len(k.heap) > 0 {
		if k.heap[0].at > until {
			break
		}
		k.dispatch(k.pop())
	}
	if k.now < until {
		k.now = until
	}
}

// Step executes exactly one pending event and reports whether one existed.
// It is intended for tests that need fine-grained control.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	k.dispatch(k.pop())
	return true
}

// Pending reports the number of scheduled events not yet fired.
func (k *Kernel) Pending() int { return len(k.heap) }

// Exp draws an exponentially distributed duration with the given mean. A
// non-positive mean yields zero, which callers use for deterministic
// (zero-demand) steps.
func (k *Kernel) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return k.rng.ExpFloat64() * mean
}

// String describes the kernel state for debugging.
func (k *Kernel) String() string {
	return fmt.Sprintf("sim.Kernel{now=%.3fs pending=%d fired=%d}", k.now, len(k.heap), k.fired)
}
