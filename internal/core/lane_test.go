package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/selector"
	"repro/internal/sum"
)

// TestWithLaneWidthBitwiseAcrossWorkers extends the runtime's
// worker-invariance guarantee to lane-parallel plans: a fixed
// (ChunkSize, LaneWidth) plan gives identical bits at every pool size,
// and the selection report is unaffected by the lane width.
func TestWithLaneWidthBitwiseAcrossWorkers(t *testing.T) {
	xs := gen.Spec{N: 40000, Cond: 1e8, DynRange: 24, Seed: 21}.Generate()
	for _, lw := range []int{2, 4, 8} {
		ref, refRep := New(1e-9, WithWorkers(1), WithChunkSize(1024), WithLaneWidth(lw)).Sum(xs)
		for _, w := range []int{2, 3, 8} {
			got, rep := New(1e-9, WithWorkers(w), WithChunkSize(1024), WithLaneWidth(lw)).Sum(xs)
			if math.Float64bits(got) != math.Float64bits(ref) {
				t.Errorf("lanes=%d: %d workers gave %x, 1 worker gave %x",
					lw, w, math.Float64bits(got), math.Float64bits(ref))
			}
			if rep.Algorithm != refRep.Algorithm {
				t.Errorf("lanes=%d: algorithm choice varied with workers: %v vs %v",
					lw, rep.Algorithm, refRep.Algorithm)
			}
		}
	}
}

// TestWithLaneWidthEnablesEngine confirms WithLaneWidth alone routes
// large sums through the engine (like WithWorkers/WithChunkSize do).
func TestWithLaneWidthEnablesEngine(t *testing.T) {
	rt := New(1e-9, WithLaneWidth(4))
	if !rt.useEngine {
		t.Fatal("WithLaneWidth did not enable the parallel engine")
	}
	if rt.par.LaneWidth != 4 {
		t.Fatalf("LaneWidth = %d, want 4", rt.par.LaneWidth)
	}
}

// twoPassEngineSum is the profile-then-sum engine route that served
// lane widths above 1 before the fused call took over every width:
// profile on the engine, decide, then sum with the lane plan. It is
// the oracle for TestEngineRouteMatchesTwoPassAtLaneWidths.
func twoPassEngineSum(rt *Runtime, xs []float64) (float64, Report) {
	prof := selector.ProfileOfParallel(xs, rt.par)
	if prof.NonFinite {
		return sum.Standard(xs), Report{
			Algorithm: sum.StandardAlg,
			Profile:   prof,
			Predicted: math.Inf(1),
			Bounds:    selector.ComputeBounds(prof, 0),
			NonFinite: true,
			Route:     selector.RouteNonFinite,
		}
	}
	d := rt.sel.Decide(prof)
	rep := Report{Algorithm: d.Alg, Profile: prof, Predicted: d.Predicted, Bounds: d.Bounds}
	if d.Alg == sum.PreroundedAlg {
		cfg := d.PR
		rep.PRConfig = &cfg
		return parallel.SumPR(cfg, xs, rt.par), rep
	}
	return parallel.Sum(d.Alg, xs, rt.par), rep
}

// reportKey renders every field of a report, the PR configuration by
// value, so two reports compare equal exactly when their contents do
// (NaN bounds included).
func reportKey(r Report) string {
	pr := "nil"
	if r.PRConfig != nil {
		pr = fmt.Sprintf("%+v", *r.PRConfig)
	}
	r.PRConfig = nil
	return fmt.Sprintf("%+v|%s", r, pr)
}

// TestEngineRouteMatchesTwoPassAtLaneWidths pins the single engine
// route at lane widths 2, 4 and 8 against the two-pass route: same sum
// bits, pick, profile and report, under the analytic, bound-driven,
// pinned-PR and cached policies. The one intended difference: on
// non-finite input the report's bounds now use the policy's own λ and
// plan, as the serial route always did. At tolerance 0 the qualifying
// policies take the exact route, whose report drops the profile and
// bounds.
func TestEngineRouteMatchesTwoPassAtLaneWidths(t *testing.T) {
	data := map[string][]float64{}
	seed := uint64(90)
	for _, k := range []float64{1, 1e4, 1e10, math.Inf(1)} {
		seed++
		data[fmt.Sprintf("k=%g", k)] = gen.Spec{N: 30000, Cond: k, DynRange: 24, Seed: seed}.Generate()
	}
	poisoned := gen.Spec{N: 30000, Cond: 1, DynRange: 8, Seed: 99}.Generate()
	poisoned[12345] = math.Inf(1)
	data["poisoned"] = poisoned

	prob := selector.ProbabilisticPolicy{Lambda: 3, Plan: selector.BalancedPlan}
	policies := map[string][]Option{
		"heuristic": nil,
		"prob":      {WithPolicy(prob)},
		"static-pr": {WithPolicy(selector.Static{Alg: sum.PreroundedAlg})},
		"cached":    {WithDecisionCache(64)},
	}
	for dname, xs := range data {
		for pname, popts := range policies {
			for _, tol := range []float64{1e-3, 1e-6, 1e-9, 1e-12, 0} {
				for _, lw := range []int{2, 4, 8} {
					for _, w := range []int{1, 3} {
						opts := append([]Option{WithWorkers(w), WithChunkSize(1 << 12), WithLaneWidth(lw)}, popts...)
						label := fmt.Sprintf("%s/%s/tol=%g/lanes=%d/w=%d", dname, pname, tol, lw, w)
						got, rep := New(tol, opts...).Sum(xs)
						want, wantRep := twoPassEngineSum(New(tol, opts...), xs)
						if pname == "prob" && wantRep.NonFinite {
							wantRep.Bounds = selector.ComputeBoundsPlan(wantRep.Profile, prob.Lambda, prob.Plan)
						}
						if tol == 0 && pname != "static-pr" && !wantRep.NonFinite {
							wantRep = Report{Algorithm: wantRep.Algorithm, Route: selector.RouteExact}
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s: sum %x, two-pass %x", label,
								math.Float64bits(got), math.Float64bits(want))
						}
						if reportKey(rep) != reportKey(wantRep) {
							t.Errorf("%s: report\n  %s\nwant\n  %s", label, reportKey(rep), reportKey(wantRep))
						}
					}
				}
			}
		}
	}
}
