package sim

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// refEvent is one entry of the oracle's pending set: the time it is due
// and its schedule order.
type refEvent struct {
	at  float64
	seq int
}

// refQueue is the oracle the kernel is checked against: a slice kept
// sorted by (at, seq), each new event inserted after every entry that
// orders before it. It is slow and obviously correct.
type refQueue struct {
	pending []refEvent
	next    int
}

func (q *refQueue) add(at float64) int {
	q.next++
	e := refEvent{at: at, seq: q.next}
	i := sort.Search(len(q.pending), func(i int) bool {
		o := q.pending[i]
		return o.at > e.at || (o.at == e.at && o.seq > e.seq)
	})
	q.pending = append(q.pending, refEvent{})
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = e
	return q.next
}

func (q *refQueue) pop() refEvent {
	e := q.pending[0]
	q.pending = q.pending[1:]
	return e
}

// oracleActor receives scheduleAct events; the tag is the event's
// schedule order.
type oracleActor struct{ p *oracleProgram }

func (a oracleActor) act(tag int32) { a.p.fire(int(tag)) }

// oracleProgram drives one kernel and the reference queue in lockstep
// through a seeded random mix of Schedule and scheduleAct calls, from
// outside and from inside firing events.
type oracleProgram struct {
	t    *testing.T
	k    *Kernel
	ref  refQueue
	rng  *rand.Rand
	peak int
	// childP is the chance that a firing event schedules children.
	childP float64
	fired  int
}

// delay draws from a small grid of dyadic values so that timestamps tie
// often and sums stay exact, plus zero and negative delays.
func (p *oracleProgram) delay() float64 {
	switch p.rng.IntN(6) {
	case 0:
		return 0
	case 1:
		return -float64(p.rng.IntN(4) + 1)
	case 2:
		return 0.5
	default:
		return float64(p.rng.IntN(32)) * 0.125
	}
}

func (p *oracleProgram) schedule() {
	d := p.delay()
	at := p.k.Now()
	if d > 0 {
		at += d
	}
	seq := p.ref.add(at)
	if p.rng.IntN(2) == 0 {
		p.k.scheduleAct(d, oracleActor{p}, int32(seq))
	} else {
		p.k.Schedule(d, func() { p.fire(seq) })
	}
	if n := len(p.ref.pending); n > p.peak {
		p.peak = n
	}
	if p.k.Pending() != len(p.ref.pending) {
		p.t.Fatalf("pending = %d after schedule, reference holds %d", p.k.Pending(), len(p.ref.pending))
	}
}

// fire checks that the kernel fired exactly the reference's next event,
// at its time, then maybe schedules children from inside the event.
func (p *oracleProgram) fire(seq int) {
	want := p.ref.pop()
	if seq != want.seq || p.k.Now() != want.at {
		p.t.Fatalf("fired #%d at %g; reference expects #%d at %g", seq, p.k.Now(), want.seq, want.at)
	}
	p.fired++
	// pop puts the fired event's slab entry at the head of the free list,
	// zeroed before the event runs.
	if e := p.k.slab[p.k.free-1]; e.fn != nil || e.act != nil || e.tag != 0 {
		p.t.Fatalf("fired #%d left its slab entry %d uncleared", seq, p.k.free-1)
	}
	if p.rng.Float64() < p.childP && len(p.ref.pending) < 4000 {
		for n := p.rng.IntN(3); n >= 0; n-- {
			p.schedule()
		}
	}
}

// runUntil runs the kernel to until and checks that every due event
// fired, nothing later did, and the clock moved as documented.
func (p *oracleProgram) runUntil(until float64) {
	before := p.k.Now()
	p.k.Run(until)
	if len(p.ref.pending) > 0 && p.ref.pending[0].at <= until {
		p.t.Fatalf("Run(%g) left #%d due at %g", until, p.ref.pending[0].seq, p.ref.pending[0].at)
	}
	if until > before && p.k.Now() != until {
		p.t.Fatalf("Run(%g) left the clock at %g", until, p.k.Now())
	}
}

func TestKernelMatchesReferenceQueue(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		p := &oracleProgram{t: t, k: NewKernel(seed), rng: rng, childP: 0.3 + 0.4*rng.Float64()}
		for phase := 0; phase < 30; phase++ {
			// Batch sizes span an empty kernel up to a few thousand pending.
			for n := []int{0, 1, 7, 60, 400, 3000}[rng.IntN(6)]; n > 0; n-- {
				p.schedule()
			}
			switch rng.IntN(4) {
			case 0: // fire a few events one at a time
				for n := rng.IntN(50); n > 0; n-- {
					had := p.k.Pending() > 0
					if p.k.Step() != had {
						t.Fatalf("seed %d: Step reported %v with %d pending", seed, !had, p.k.Pending())
					}
				}
			case 1: // run to exactly the time of a pending event
				if len(p.ref.pending) > 0 {
					p.runUntil(p.ref.pending[rng.IntN(len(p.ref.pending))].at)
				}
			case 2: // run to an arbitrary point on the grid
				p.runUntil(p.k.Now() + float64(rng.IntN(16))*0.125)
			default: // drain, with children kept from growing forever
				saved := p.childP
				p.childP = 0.2
				for p.k.Step() {
				}
				p.childP = saved
				if len(p.ref.pending) != 0 {
					t.Fatalf("seed %d: kernel drained with %d reference events pending", seed, len(p.ref.pending))
				}
			}
			if p.k.Pending() != len(p.ref.pending) {
				t.Fatalf("seed %d: pending = %d, reference holds %d", seed, p.k.Pending(), len(p.ref.pending))
			}
			if p.k.Events() != int64(p.fired) {
				t.Fatalf("seed %d: Events() = %d, fired %d", seed, p.k.Events(), p.fired)
			}
			checkSlab(t, p.k, p.peak)
		}
	}
}

// checkSlab verifies the payload slab: it never outgrows the peak pending
// count, every free entry is zeroed so fired closures and actors are
// released, and the free list and the pending slots partition it.
func checkSlab(t *testing.T, k *Kernel, peak int) {
	t.Helper()
	if len(k.slab) > peak {
		t.Fatalf("slab holds %d entries, peak pending was %d", len(k.slab), peak)
	}
	owned := make([]bool, len(k.slab))
	free := 0
	for f := k.free; f != 0; f = k.slab[f-1].next {
		if owned[f-1] {
			t.Fatalf("free list revisits entry %d", f-1)
		}
		owned[f-1] = true
		if e := k.slab[f-1]; e.fn == nil && e.act == nil && e.tag == 0 {
			free++
			continue
		}
		t.Fatalf("free slab entry %d still holds a payload", f-1)
	}
	for _, s := range k.heap {
		i := s.key & slabMask
		if owned[i] {
			t.Fatalf("pending slot %+v shares slab entry %d", s, i)
		}
		owned[i] = true
		if k.slab[i].fn == nil && k.slab[i].act == nil {
			t.Fatalf("pending slot %+v has an empty payload", s)
		}
	}
	if free+len(k.heap) != len(k.slab) {
		t.Fatalf("%d free + %d pending entries, slab holds %d", free, len(k.heap), len(k.slab))
	}
}

// TestKernelSequenceLimit checks the FIFO tie-break at the top of the
// packed key's sequence range and the panic past it.
func TestKernelSequenceLimit(t *testing.T) {
	k := NewKernel(1)
	k.seq = maxSeq - 3
	var order []int
	for i := 0; i < 3; i++ {
		k.Schedule(1, func() { order = append(order, i) })
	}
	k.Run(1)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("same-time events near the sequence limit fired as %v", order)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "scheduled more than") {
			t.Fatalf("scheduling past the sequence limit: recovered %v", r)
		}
	}()
	k.Schedule(1, func() {})
}
