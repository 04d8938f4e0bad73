package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.CI95() != 0 {
		t.Fatalf("empty summary should be all zeros: %v", s.String())
	}
}

func TestSummaryBasicMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %g, want 5", s.Mean())
	}
	// Population variance of this classic data set is 4; sample variance
	// is 32/7.
	if !almostEqual(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %g, want %g", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %g/%g, want 2/9", s.Min(), s.Max())
	}
	if !almostEqual(s.Sum(), 40, 1e-12) {
		t.Errorf("sum = %g, want 40", s.Sum())
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Observe(3.5)
	if s.Mean() != 3.5 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Fatalf("single observation summary wrong: %s", s.String())
	}
	if s.Variance() != 0 || s.StdDev() != 0 {
		t.Fatalf("variance of one observation must be 0")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var whole, a, b Summary
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		whole.Observe(x)
		if i%2 == 0 {
			a.Observe(x)
		} else {
			b.Observe(x)
		}
	}
	a.Merge(b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), whole.Count())
	}
	if !almostEqual(a.Mean(), whole.Mean(), 1e-9) {
		t.Errorf("merged mean %g != %g", a.Mean(), whole.Mean())
	}
	if !almostEqual(a.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged variance %g != %g", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged min/max mismatch")
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var a, b Summary
	a.Observe(1)
	a.Observe(2)
	before := a
	a.Merge(b) // merging empty is a no-op
	if a != before {
		t.Fatalf("merge with empty changed summary")
	}
	b.Merge(a) // merging into empty copies
	if b.Count() != 2 || b.Mean() != 1.5 {
		t.Fatalf("merge into empty failed: %s", b.String())
	}
}

// Property: merging any split of a sequence equals observing the whole
// sequence, for mean and count.
func TestSummaryMergeProperty(t *testing.T) {
	f := func(xs []float64, splitSeed uint64) bool {
		// Keep values finite and moderate.
		clean := xs[:0:0]
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			clean = append(clean, math.Mod(x, 1e6))
		}
		var whole, a, b Summary
		rng := rand.New(rand.NewPCG(splitSeed, 99))
		for _, x := range clean {
			whole.Observe(x)
			if rng.IntN(2) == 0 {
				a.Observe(x)
			} else {
				b.Observe(x)
			}
		}
		a.Merge(b)
		if a.Count() != whole.Count() {
			return false
		}
		if whole.Count() == 0 {
			return true
		}
		return almostEqual(a.Mean(), whole.Mean(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.9, 90.1}, {0.99, 99.01},
	}
	for _, c := range cases {
		got := s.Quantile(c.q)
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := s.Percentile(50); !almostEqual(got, 50.5, 1e-9) {
		t.Errorf("Percentile(50) = %g", got)
	}
}

func TestSampleEmptyAndReset(t *testing.T) {
	s := NewSample(4)
	if s.Quantile(0.5) != 0 || s.Count() != 0 {
		t.Fatalf("empty sample should report zeros")
	}
	s.Observe(5)
	s.Observe(1)
	if s.Min() != 1 || s.Max() != 5 || s.Count() != 2 {
		t.Fatalf("sample bookkeeping wrong")
	}
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 {
		t.Fatalf("reset did not clear sample")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestSampleQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64) bool {
		s := NewSample(len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Observe(math.Mod(x, 1e9))
		}
		if s.Count() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			if v < s.Min()-1e-9 || v > s.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleValuesSortedCopy(t *testing.T) {
	s := NewSample(0)
	for _, x := range []float64{3, 1, 2} {
		s.Observe(x)
	}
	v := s.Values()
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("Values not sorted: %v", v)
	}
	v[0] = 99 // must be a copy
	if s.Min() != 1 {
		t.Fatalf("Values returned internal storage")
	}
}

func TestSampleAppendSinceStreamsInsertionOrder(t *testing.T) {
	s := NewSample(0)
	for _, x := range []float64{3, 1, 2} {
		s.Observe(x)
	}
	got := s.AppendSince(nil, 0)
	n := s.Count()
	s.Observe(0)
	got = s.AppendSince(got, n)
	if want := []float64{3, 1, 2, 0}; !slices.Equal(got, want) {
		t.Fatalf("AppendSince = %v, want %v", got, want)
	}
	if got := s.AppendSince(nil, s.Count()); len(got) != 0 {
		t.Fatalf("AppendSince past the end = %v, want empty", got)
	}

	// An in-place sort loses insertion order; observing more values does
	// not bring it back, only Reset does.
	s.Quantile(0.5)
	s.Observe(7)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AppendSince after Quantile did not panic")
			}
		}()
		s.AppendSince(nil, 0)
	}()
	s.Reset()
	s.Observe(4)
	if got := s.AppendSince(nil, 0); !slices.Equal(got, []float64{4}) {
		t.Fatalf("AppendSince after Reset = %v, want [4]", got)
	}
}

func TestPearson(t *testing.T) {
	// Perfect positive correlation.
	if r := Pearson([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %g", r)
	}
	// Perfect negative.
	if r := Pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %g", r)
	}
	// Known value: x=(1,2,3), y=(1,3,2) → r = 0.5.
	if r := Pearson([]float64{1, 2, 3}, []float64{1, 3, 2}); math.Abs(r-0.5) > 1e-12 {
		t.Errorf("correlation = %g, want 0.5", r)
	}
	// Degenerate cases.
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Errorf("single pair should be 0")
	}
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Errorf("zero variance should be 0")
	}
	// Unequal lengths use the shorter prefix.
	if r := Pearson([]float64{1, 2, 3, 99}, []float64{10, 20, 30}); math.Abs(r-1) > 1e-12 {
		t.Errorf("prefix correlation = %g", r)
	}
}
