package selector

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/sum"
)

// invariantProfiles spans the fig12 data classes (k in {1, 1e4, 1e10,
// inf}, dr 10..40, two sizes) plus the degenerate empty, single-value
// and all-zero profiles.
func invariantProfiles() map[string]Profile {
	profs := map[string]Profile{
		"empty":  {},
		"single": ProfileOf([]float64{3.25}),
		"zeros":  ProfileOf(make([]float64, 64)),
	}
	seed := uint64(700)
	for _, n := range []int{1000, 20000} {
		for _, k := range []float64{1, 1e4, 1e10, math.Inf(1)} {
			for _, dr := range []int{10, 24, 40} {
				seed++
				xs := gen.Spec{N: n, Cond: k, DynRange: dr, Seed: seed}.Generate()
				profs[fmt.Sprintf("n=%d/k=%g/dr=%d", n, k, dr)] = ProfileOf(xs)
			}
		}
	}
	return profs
}

// TestPolicyNeverCostlierThanCheapestReproducible pins the ladder's
// central promise: the cheapest reproducible rung is exact and meets
// every tolerance, so no policy at its default configuration may pick
// anything costlier for finite data — bare or behind a decision cache.
//
// The calibrated scan runs Calibrate's defaults (algorithms, condition
// and dynamic-range knots, trials, safety) with the size envelope
// narrowed to its smallest default n, so the sweep stays test-sized;
// the surface is fitted from those cells without measured costs.
func TestPolicyNeverCostlierThanCheapestReproducible(t *testing.T) {
	scan := Calibrate(CalibrationConfig{Ns: []int{1 << 10}})
	policies := map[string]Policy{
		"heuristic":     NewHeuristicPolicy(),
		"prob-serial":   ProbabilisticPolicy{Plan: SerialPlan},
		"prob-balanced": ProbabilisticPolicy{Plan: BalancedPlan},
		"scan":          scan,
		"surface":       FitSurface(scan.Cells(), nil, 0),
	}
	tols := []float64{0}
	for e := -16; e <= -2; e++ {
		tols = append(tols, math.Pow(10, float64(e)))
	}
	limit := sum.CheapestReproducible().CostRank()
	profs := invariantProfiles()
	for pname, pol := range policies {
		for _, cached := range []bool{false, true} {
			label := pname
			if cached {
				label += "+cache"
			}
			violations, total := 0, 0
			for _, tol := range tols {
				s := &Selector{Policy: pol, Req: Requirement{Tolerance: tol}}
				if cached {
					s.Cache = NewDecisionCache(CacheConfig{})
				}
				for name, p := range profs {
					total++
					if alg := s.Decide(p).Alg; alg.CostRank() > limit {
						violations++
						if violations <= 5 {
							t.Errorf("%s: %s tol=%g picked %v (rank %d > %v rank %d)",
								label, name, tol, alg, alg.CostRank(),
								sum.CheapestReproducible(), limit)
						}
					}
				}
			}
			if violations > 0 {
				t.Errorf("%s: %d/%d picks costlier than the cheapest reproducible rung",
					label, violations, total)
			}
		}
	}
}
