package fluid

// The quantile path as it stood before the distinct-rate exponential
// table and the fixed-point bisection stop, kept verbatim as the oracle
// the optimised path must reproduce bit for bit. Only the names differ:
// each function is prefixed with oracle, and the methods that read
// Solver.classes take the oracle's class list instead.

import (
	"math"
)

// oracleClass is the former classDist, which carried each class's
// hypoexponential coefficients.
type oracleClass struct {
	name    string
	weight  float64
	rates   []float64 // distinct exponential stage rates
	alphas  []float64 // hypoexponential CDF coefficients
	expMean float64   // Σ 1/rate
}

func oracleDeriveClasses(s *Solver, classes []Class, wsum float64, d int) []oracleClass {
	var out []oracleClass
	webSpeed := tierSpeed(s.cfg.Web)
	appSpeed := tierSpeed(s.cfg.App)
	dbSpeed := tierSpeed(s.cfg.DB)
	for _, c := range classes {
		if c.Weight <= 0 {
			continue
		}
		cd := oracleClass{name: c.Name, weight: c.Weight / wsum}
		var rates []float64
		addStage := func(svc float64) {
			if svc > 0 {
				rates = append(rates, 1/svc)
			}
		}
		addStage(svcFor(c, TierWeb, s.cfg.Web.CPUScale, webSpeed))
		addStage(svcFor(c, TierApp, s.cfg.App.CPUScale, appSpeed))
		dbSvc := svcFor(c, TierDB, s.cfg.DB.CPUScale, dbSpeed)
		if dbSvc > 0 {
			if c.Write {
				// max of d iid Exp(μ) = hypoexponential with rates dμ … μ.
				mu := 1 / dbSvc
				for k := d; k >= 1; k-- {
					rates = append(rates, float64(k)*mu)
				}
			} else {
				rates = append(rates, 1/dbSvc)
			}
		}
		cd.rates = oracleDistinctRates(rates)
		cd.alphas = oracleHypoAlphas(cd.rates)
		for _, r := range cd.rates {
			cd.expMean += 1 / r
		}
		out = append(out, cd)
	}
	return out
}

func oracleDistinctRates(rates []float64) []float64 {
	out := append([]float64(nil), rates...)
	for i := 1; i < len(out); i++ {
		for j := 0; j < i; j++ {
			if rel := math.Abs(out[i]-out[j]) / math.Max(out[i], out[j]); rel < 1e-9 {
				out[i] *= 1 + 1e-6*float64(i+1)
				j = -1 // restart against earlier entries
			}
		}
	}
	return out
}

func oracleHypoAlphas(rates []float64) []float64 {
	alphas := make([]float64, len(rates))
	for i, li := range rates {
		a := 1.0
		for j, lj := range rates {
			if j != i {
				a *= lj / (lj - li)
			}
		}
		alphas[i] = a
	}
	return alphas
}

func oracleHypoCDF(rates, alphas []float64, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if len(rates) == 0 {
		return 1
	}
	f := 1.0
	for i, r := range rates {
		f -= alphas[i] * math.Exp(-r*x)
	}
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func oracleStatsBetween(s *Solver, oc []oracleClass, a, b Snapshot) Stats {
	st := Stats{DurationSec: b.Time - a.Time}
	comps := b.Done - a.Done
	rejected := b.Rejected - a.Rejected
	if comps <= 1e-12 || st.DurationSec <= 0 {
		st.Errors = rejected
		return st
	}
	var pWait [numTiers]float64
	lam := comps / st.DurationSec
	for i := range s.tiers {
		res := (b.QInt[i] - a.QInt[i]) / comps
		w := res - s.tiers[i].svcLatency
		if w < 0 {
			w = 0
		}
		st.TierWaitSec[i] = w
		// Probability an arrival has to wait at all: one minus the chance
		// every leg is clear — Erlang-C for the M/M/c CPU leg, utilization
		// for the single-server deterministic disk and net legs.
		tr := &s.tiers[i]
		lamNode := lam * tr.visitsPerNode
		noWait := 1 - erlangCP(lamNode, tr.cpuSvcMean, tr.cores)
		for _, svc := range [...]float64{tr.diskSvc, tr.netSvc} {
			if svc > 0 {
				rho := lamNode * svc
				if rho > 0.999 {
					rho = 0.999
				}
				noWait *= 1 - rho
			}
		}
		p := 1 - noWait
		if p > 1 {
			p = 1
		}
		if p < 1e-3 {
			p = 1e-3
		}
		pWait[i] = p
	}
	shift := s.detSvc
	classes := oracleWindowClasses(oc, st.TierWaitSec, pWait, lam)

	timeoutFrac := 0.0
	if to := s.cfg.TimeoutSec; to > 0 {
		timeoutFrac = 1 - oracleMixtureCDF(classes, to-shift)
		// Branch weights sum to 1 only within float rounding; scrub the
		// resulting dust so sub-knee windows report exactly zero.
		if timeoutFrac < 1e-12 {
			timeoutFrac = 0
		}
	}
	st.TimeoutFraction = timeoutFrac
	st.Requests = comps * (1 - timeoutFrac)
	st.Errors = rejected + comps*timeoutFrac
	st.ThroughputRPS = st.Requests / st.DurationSec

	sumW := 0.0
	for _, w := range st.TierWaitSec {
		sumW += w
	}
	mean := shift + sumW
	for _, c := range oc {
		mean += c.weight * c.expMean
		st.PerClass = append(st.PerClass, ClassMean{
			Name: c.name, MeanMS: (shift + sumW + c.expMean) * 1000,
		})
	}
	st.MeanRTms = mean * 1000
	st.P50ms = (shift + oracleMixtureQuantile(classes, 0.50)) * 1000
	st.P90ms = (shift + oracleMixtureQuantile(classes, 0.90)) * 1000
	st.P99ms = (shift + oracleMixtureQuantile(classes, 0.99)) * 1000
	n := math.Round(comps)
	if n < 1 {
		n = 1
	}
	pMax := (n - 0.5) / n
	if pMax > 1-1e-12 {
		pMax = 1 - 1e-12
	}
	st.MaxRTms = (shift + oracleMixtureQuantile(classes, pMax)) * 1000
	return st
}

func oracleWindowClasses(classes []oracleClass, waits, pWait [numTiers]float64, lam float64) []oracleClass {
	var waitStages [][]float64 // conditional-wait stage rates per waiting tier
	var waitProb []float64
	for i, w := range waits {
		if w > 1e-12 {
			// Conditional-wait shape: an arrival that waits drains the
			// jobs ahead of it (≈ λW/p), pushing the wait from memoryless
			// (open M/M/1, geometrically distributed queue) toward Erlang
			// (deterministic queue). The closed network sits between the
			// two; half-strength matches the DES across the sweep range.
			waitStages = append(waitStages, oracleWaitDist(w/pWait[i], 1+lam*w/pWait[i]/4))
			waitProb = append(waitProb, pWait[i])
		}
	}
	if len(waitStages) == 0 {
		return classes
	}
	out := make([]oracleClass, 0, len(classes)*(1<<len(waitStages)))
	for _, c := range classes {
		for sub := 0; sub < 1<<len(waitStages); sub++ {
			weight := c.weight
			rates := append([]float64(nil), c.rates...)
			for j := range waitStages {
				if sub&(1<<j) != 0 {
					weight *= waitProb[j]
					rates = append(rates, waitStages[j]...)
				} else {
					weight *= 1 - waitProb[j]
				}
			}
			if weight <= 0 {
				continue
			}
			rates = oracleDistinctRates(rates)
			cd := oracleClass{name: c.name, weight: weight, rates: rates, alphas: oracleHypoAlphas(rates)}
			for _, r := range rates {
				cd.expMean += 1 / r
			}
			out = append(out, cd)
		}
	}
	return out
}

func oracleWaitDist(m, shape float64) []float64 {
	switch {
	case shape <= 1+1e-9:
		return []float64{1 / m}
	case shape < 2:
		// Two stages matching mean m and CV² = 1/shape exactly.
		d := math.Sqrt(2/shape - 1)
		return []float64{2 / (m * (1 + d)), 2 / (m * (1 - d))}
	default:
		// Erlang-like: k stages with means spread linearly ±20% around
		// m/k. Equal rates would make the hypoexponential alphas blow up
		// (the closed form needs distinct rates); the spread keeps them
		// well conditioned while matching the mean exactly and the CV²
		// closely.
		k := int(math.Round(shape))
		if k > 8 {
			k = 8
		}
		rates := make([]float64, k)
		var sum float64
		for i := range rates {
			f := 0.8 + 0.4*float64(i)/float64(k-1)
			rates[i] = f
			sum += f
		}
		for i := range rates {
			rates[i] = sum / (rates[i] * m)
		}
		return rates
	}
}

func oracleMixtureCDF(classes []oracleClass, x float64) float64 {
	if x <= 0 {
		return 0
	}
	f := 0.0
	for _, c := range classes {
		f += c.weight * oracleHypoCDF(c.rates, c.alphas, x)
	}
	return f
}

func oracleMixtureQuantile(classes []oracleClass, p float64) float64 {
	if p <= 0 {
		return 0
	}
	hi := 1e-6
	for _, c := range classes {
		if m := c.expMean * 4; m > hi {
			hi = m
		}
	}
	for i := 0; i < 200 && oracleMixtureCDF(classes, hi) < p; i++ {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if oracleMixtureCDF(classes, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
