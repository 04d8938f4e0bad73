package fluid

import (
	"math"
	"math/rand"
	"testing"

	"elba/internal/bench/rubis"
)

// oracleProbs are the quantile levels the differential tests invert:
// the three reported percentiles and the max-RT level of a huge window.
var oracleProbs = []float64{0.5, 0.9, 0.99, 1 - 1e-12}

// TestQuantileOracleMixtures builds random window mixtures — 1–26
// classes, 0–3 waiting tiers with wait shapes 1, 1.5 and 2–8, stage rates
// that collide within a class and with the wait stages, point-mass
// classes without stages, and branches of zero weight — and requires the
// distinct-rate mixture to reproduce the oracle's branches, CDF values
// and quantiles bit for bit.
func TestQuantileOracleMixtures(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []float64{1, 1.5, 2, 3, 4, 5, 6, 7, 8}
	var s Solver
	for trial := 0; trial < 600; trial++ {
		lam := 0.5 + 1.5*rng.Float64()
		var waits, pWait [numTiers]float64
		var waitRates []float64
		for _, i := range rng.Perm(numTiers)[:trial%(numTiers+1)] {
			p := 1e-3 + (1-1e-3)*rng.Float64()
			if rng.Intn(5) == 0 {
				p = 1 // every arrival waits: the no-wait branches weigh zero
			}
			shape := shapes[rng.Intn(len(shapes))]
			w := (shape - 1) * 4 * p / lam
			if shape == 1 {
				w = 1.5e-12 // just above the waiting threshold: memoryless
			}
			waits[i], pWait[i] = w, p
			waitRates = append(waitRates, oracleWaitDist(w/p, 1+lam*w/p/4)...)
		}

		nc := 1 + rng.Intn(26)
		s.classes = s.classes[:0]
		var oc []oracleClass
		for c := 0; c < nc; c++ {
			raw := make([]float64, rng.Intn(6)) // no stages: a point mass
			for j := range raw {
				switch k := rng.Intn(4); {
				case k == 0 && j > 0:
					raw[j] = raw[rng.Intn(j)]
				case k == 1 && len(waitRates) > 0:
					raw[j] = waitRates[rng.Intn(len(waitRates))]
				default:
					raw[j] = math.Exp(8*rng.Float64() - 2)
				}
			}
			weight := rng.Float64()
			if rng.Intn(10) == 0 {
				weight = 0
			}
			want := oracleDistinctRates(raw)
			got := append([]float64(nil), raw...)
			perturbDistinct(got)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("trial %d class %d: perturbed rate %d = %v, oracle %v", trial, c, j, got[j], want[j])
				}
			}
			cd := classDist{weight: weight, rates: got}
			for _, r := range got {
				cd.expMean += 1 / r
			}
			s.classes = append(s.classes, cd)
			oc = append(oc, oracleClass{weight: weight, rates: want, alphas: oracleHypoAlphas(want), expMean: cd.expMean})
		}

		mix := s.windowMixture(waits, pWait, lam)
		branches := oracleWindowClasses(oc, waits, pWait, lam)
		if len(mix.branches) != len(branches) {
			t.Fatalf("trial %d: %d branches, oracle %d", trial, len(mix.branches), len(branches))
		}
		for i, b := range mix.branches {
			o := branches[i]
			if !sameBits(b.weight, o.weight) || !sameBits(b.expMean, o.expMean) || b.end-b.start != len(o.rates) {
				t.Fatalf("trial %d branch %d: weight %v mean %v terms %d, oracle %v %v %d",
					trial, i, b.weight, b.expMean, b.end-b.start, o.weight, o.expMean, len(o.rates))
			}
			for j, a := range mix.alphas[b.start:b.end] {
				if !sameBits(a, o.alphas[j]) || !sameBits(mix.rates[mix.idx[b.start+j]], o.rates[j]) {
					t.Fatalf("trial %d branch %d term %d differs from the oracle", trial, i, j)
				}
			}
		}
		for _, p := range oracleProbs {
			q, want := mix.quantile(p), oracleMixtureQuantile(branches, p)
			if !sameBits(q, want) {
				t.Fatalf("trial %d (%d classes, %d branches): quantile(%v) = %v, oracle %v",
					trial, nc, len(branches), p, q, want)
			}
			for _, x := range []float64{q, q / 3, 2 * q} {
				if got, want := mix.cdf(x), oracleMixtureCDF(branches, x); !sameBits(got, want) {
					t.Fatalf("trial %d: cdf(%v) = %v, oracle %v", trial, x, got, want)
				}
			}
		}
	}
}

// TestQuantileOracleStatsBetween drives StatsBetween over random solvers
// and windows — random class mixes with zero and repeated demands, write
// broadcast over 1–4 replicas, multi-core and heterogeneous-speed tiers,
// disk and network legs, client timeouts, replica-count changes — plus
// real integrated windows, and requires every field to match the oracle
// bit for bit.
func TestQuantileOracleStatsBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var seen [numTiers + 1]int
	for trial := 0; trial < 300; trial++ {
		cfg := randomConfig(rng)
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rng.Intn(4) == 0 {
			s.SetTierNodes(TierDB, 1+rng.Intn(4))
		}
		oc := oracleDeriveClasses(s, s.cfg.Classes, s.wsum, len(s.cfg.DB.Nodes))

		for w := 0; w < 4; w++ {
			dur := math.Exp(6*rng.Float64() - 1)
			comps := dur * math.Exp(10*rng.Float64()-4)
			if w == 3 && trial%10 == 0 {
				comps = 0 // an empty window
			}
			a := Snapshot{Time: 5, Done: 1e3, Rejected: 7}
			b := Snapshot{Time: 5 + dur, Done: 1e3 + comps, Rejected: 7 + float64(rng.Intn(50))}
			waiting := 0
			for i := range s.tiers {
				q := s.tiers[i].svcLatency * rng.Float64()
				if rng.Intn(2) == 0 {
					q = s.tiers[i].svcLatency + math.Exp(30*rng.Float64()-27)
					waiting++
				}
				a.QInt[i] = 50
				b.QInt[i] = 50 + comps*q
			}
			seen[waiting]++
			checkStats(t, trial, s.StatsBetween(a, b), oracleStatsBetween(s, oc, a, b))
		}

		// A real window of the integrated trajectory.
		s.Advance(60)
		a := s.Snapshot()
		s.Advance(60 + 30*rng.Float64())
		b := s.Snapshot()
		checkStats(t, trial, s.StatsBetween(a, b), oracleStatsBetween(s, oc, a, b))
	}
	for k, n := range seen {
		if n == 0 {
			t.Fatalf("no window drew %d waiting tiers", k)
		}
	}
}

// randomConfig draws a solver configuration for the differential test.
func randomConfig(rng *rand.Rand) Config {
	speeds := []float64{0.5, 1, 1, 2}
	tier := func(name string, n int) TierSpec {
		ts := TierSpec{Name: name}
		cores := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			node := NodeSpec{Cores: cores, Speed: speeds[rng.Intn(len(speeds))]}
			if rng.Intn(4) == 0 {
				node.DiskRate, node.NetRate = 1, 1e6
			}
			ts.Nodes = append(ts.Nodes, node)
		}
		if rng.Intn(4) == 0 {
			ts.DiskSec, ts.NetBytes = 0.002*rng.Float64(), 4000*rng.Float64()
		}
		if rng.Intn(3) == 0 {
			ts.CPUScale = 0.5 + rng.Float64()
		}
		return ts
	}
	cfg := Config{
		Sessions: 1 + rng.Intn(5000),
		ThinkSec: 1 + 7*rng.Float64(),
		Web:      tier("web", 1+rng.Intn(2)),
		App:      tier("app", 1+rng.Intn(8)),
		DB:       tier("db", 1+rng.Intn(4)),
	}
	if rng.Intn(2) == 0 {
		cfg.TimeoutSec = 0.05 + 2*rng.Float64()
	}
	demands := []float64{0, 0.001, 0.002, 0.005, 0.008}
	for c, n := 0, 1+rng.Intn(26); c < n; c++ {
		cl := Class{Name: string(rune('a' + c)), Weight: rng.Float64(), Write: rng.Intn(4) == 0}
		cl.Web = demands[rng.Intn(len(demands))]
		cl.App = demands[rng.Intn(len(demands))]
		cl.DB = demands[rng.Intn(len(demands))]
		if rng.Intn(3) > 0 {
			cl.Web += 0.01 * rng.Float64()
			cl.App += 0.02 * rng.Float64()
			cl.DB += 0.01 * rng.Float64()
		}
		cfg.Classes = append(cfg.Classes, cl)
	}
	cfg.Classes[0].Weight += 0.1 // weights never all zero
	return cfg
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkStats fails the test at the first field whose bits differ.
func checkStats(t *testing.T, trial int, got, want Stats) {
	t.Helper()
	fields := func(st Stats) []float64 {
		out := []float64{st.DurationSec, st.Requests, st.Errors, st.TimeoutFraction,
			st.ThroughputRPS, st.MeanRTms, st.P50ms, st.P90ms, st.P99ms, st.MaxRTms}
		out = append(out, st.TierWaitSec[:]...)
		for _, c := range st.PerClass {
			out = append(out, c.MeanMS)
		}
		return out
	}
	g, w := fields(got), fields(want)
	if len(g) != len(w) {
		t.Fatalf("trial %d: %d per-class means, oracle %d", trial, len(got.PerClass), len(want.PerClass))
	}
	for i := range g {
		if !sameBits(g[i], w[i]) {
			t.Fatalf("trial %d: stats field %d = %v, oracle %v\n got %+v\nwant %+v", trial, i, g[i], w[i], got, want)
		}
	}
	for i := range got.PerClass {
		if got.PerClass[i].Name != want.PerClass[i].Name {
			t.Fatalf("trial %d: class %d named %q, oracle %q", trial, i, got.PerClass[i].Name, want.PerClass[i].Name)
		}
	}
}

// rubisWindow integrates a RUBiS bidding-mix 1-8-2 system at an
// overloaded population and returns the solver with one measured window
// in which all three tiers impose a queueing wait.
func rubisWindow(tb testing.TB) (*Solver, Snapshot, Snapshot) {
	tb.Helper()
	profile, err := rubis.Bidding(rubis.JOnAS)
	if err != nil {
		tb.Fatal(err)
	}
	node := NodeSpec{Cores: 1, Speed: 1}
	nodes := func(n int) []NodeSpec {
		out := make([]NodeSpec, n)
		for i := range out {
			out[i] = node
		}
		return out
	}
	cfg := Config{
		Sessions: 3000,
		ThinkSec: profile.ThinkTime(),
		Web:      TierSpec{Name: "web", Nodes: nodes(1)},
		App:      TierSpec{Name: "app", Nodes: nodes(8)},
		DB:       TierSpec{Name: "db", Nodes: nodes(2)},
	}
	pi := profile.Matrix().Stationary()
	for j, st := range profile.Interactions() {
		cfg.Classes = append(cfg.Classes, Class{
			Name: st.Name, Weight: pi[j], Web: st.WebDemand, App: st.AppDemand, DB: st.DBDemand, Write: st.Write,
		})
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.Advance(120)
	a := s.Snapshot()
	s.Advance(420)
	b := s.Snapshot()
	st := s.StatsBetween(a, b)
	for i, w := range st.TierWaitSec {
		if w <= 1e-12 {
			tb.Fatalf("tier %d does not wait (W = %g): the window is not overloaded", i, w)
		}
	}
	return s, a, b
}

// TestQuantileOracleRubisWindow checks the benchmark's own window against
// the oracle.
func TestQuantileOracleRubisWindow(t *testing.T) {
	s, a, b := rubisWindow(t)
	oc := oracleDeriveClasses(s, s.cfg.Classes, s.wsum, len(s.cfg.DB.Nodes))
	checkStats(t, 0, s.StatsBetween(a, b), oracleStatsBetween(s, oc, a, b))
}

var windowStatsSink Stats

// BenchmarkFluidWindowStats times the fluid trial body's window
// statistics: one StatsBetween over a RUBiS-shaped overloaded 1-8-2
// window in which all three tiers wait, so every class expands into
// eight hypoexponential branches.
func BenchmarkFluidWindowStats(b *testing.B) {
	s, snapA, snapB := rubisWindow(b)
	evals := s.win.evals
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		windowStatsSink = s.StatsBetween(snapA, snapB)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.win.evals-evals)/float64(b.N), "cdf-evals/op")
}
