package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/selector"
	"repro/internal/sum"
)

// exactInputs are the pin inputs: n = 0..3, zeros, exact zero sums,
// overflowing sums, NaN/±Inf, subnormal and tiny data, and the fig12
// classes at 10^4 elements (three engine chunks of 1<<12).
func exactInputs() map[string][]float64 {
	big, negz := math.MaxFloat64, math.Copysign(0, -1)
	inf, nan := math.Inf(1), math.NaN()
	in := map[string][]float64{
		"n=0":              nil,
		"n=1":              {3.25},
		"n=2":              {1.5, 2.25},
		"n=3":              {1, -2, 4.5},
		"zeros":            {0, negz, 0},
		"neg-zeros":        {negz, negz},
		"zero-sum":         {1, -1},
		"zero-sum-wide":    {1e300, 3, -1e300, -3},
		"overflow":         {big, big},
		"overflow-neg":     {-big, -big, 1},
		"overflow-cancel":  {big, big, -big, -big},
		"nan":              {1, nan, 2},
		"+inf":             {1, inf},
		"-inf":             {-inf, 2},
		"both-inf":         {inf, 1, -inf},
		"subnormal":        {0x1p-1074, 0x1.8p-1060, -0x1p-1065},
		"tiny":             {3e-170, 1e-170, -2e-170},
		"zero-sum-chunked": make([]float64, 10000),
	}
	for i := range in["zero-sum-chunked"] {
		in["zero-sum-chunked"][i] = float64(i%7 - 3)
	}
	seed := uint64(40)
	for _, k := range []float64{1, 1e4, 1e10, math.Inf(1)} {
		seed++
		in[fmt.Sprintf("fig12/k=%g", k)] = gen.Spec{N: 10000, Cond: k, DynRange: 24, Seed: seed}.Generate()
	}
	poisoned := gen.Spec{N: 10000, Cond: 1, DynRange: 8, Seed: 49}.Generate()
	poisoned[5000] = inf
	in["fig12/inf"] = poisoned
	return in
}

// exactExpected reports whether a tolerance-0 Sum of xs under a
// qualifying policy must take the exact route: at least two values, a
// finite exact sum, and a sum or element of at least 2^-400 in
// magnitude (the route's floor).
func exactExpected(xs []float64) bool {
	if len(xs) < 2 {
		return false
	}
	v := sum.Binned(xs)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	floor := 0x1p-400
	if math.Abs(v) >= floor {
		return true
	}
	for _, x := range xs {
		if math.Abs(x) >= floor {
			return true
		}
	}
	return false
}

// userPolicy always picks BN, but as a user type it gives the runtime
// nothing to prove the exact route from.
type userPolicy struct{}

func (userPolicy) Select(selector.Profile, selector.Requirement) (sum.Algorithm, float64) {
	return sum.BinnedAlg, 0
}

// TestExactRouteMatchesLegacy pins Runtime.Sum at tolerance 0 against
// the profiled route, for the heuristic and probabilistic policies bare
// and cached, Static{BN}, and the policies that must not take the
// route, serially and on the engine at workers 1/3 × lanes 1/4: equal
// bits and algorithm everywhere (legacySum is the profiled route),
// RouteExact exactly where expected, and on it a report with nothing
// but the algorithm and the route.
func TestExactRouteMatchesLegacy(t *testing.T) {
	prob := selector.NewProbabilisticPolicy(0)
	policies := []struct {
		name      string
		opts      []Option
		qualifies bool
	}{
		{"heuristic", nil, true},
		{"heuristic+cache", []Option{WithDecisionCache(64)}, true},
		{"prob", []Option{WithPolicy(prob)}, true},
		{"prob+cache", []Option{WithPolicy(prob), WithDecisionCache(64)}, true},
		{"static-bn", []Option{WithPolicy(selector.Static{Alg: sum.BinnedAlg})}, true},
		{"static-st", []Option{WithPolicy(selector.Static{Alg: sum.StandardAlg})}, false},
		{"static-n", []Option{WithPolicy(selector.Static{Alg: sum.NeumaierAlg})}, false},
		{"static-pr", []Option{WithPolicy(selector.Static{Alg: sum.PreroundedAlg})}, false},
		{"calibration", []Option{WithCalibration(&selector.Calibration{})}, false},
		{"user", []Option{WithPolicy(userPolicy{})}, false},
	}
	engines := map[string][]Option{"serial": nil}
	for _, w := range []int{1, 3} {
		for _, l := range []int{1, 4} {
			engines[fmt.Sprintf("w=%d/l=%d", w, l)] = []Option{WithWorkers(w), WithChunkSize(1 << 12), WithLaneWidth(l)}
		}
	}
	for name, xs := range exactInputs() {
		exact := exactExpected(xs)
		for _, p := range policies {
			for ename, eopts := range engines {
				label := fmt.Sprintf("%s/%s/%s", name, p.name, ename)
				opts := append(append([]Option{}, eopts...), p.opts...)
				got, rep := New(0, opts...).Sum(xs)
				want, wantAlg := legacySum(New(0, opts...), xs)
				if math.Float64bits(got) != math.Float64bits(want) || rep.Algorithm != wantAlg {
					t.Errorf("%s: %x %v, legacy %x %v", label,
						math.Float64bits(got), rep.Algorithm, math.Float64bits(want), wantAlg)
				}
				isExact := rep.Route == selector.RouteExact
				if isExact != (exact && p.qualifies) {
					t.Errorf("%s: route %v, want exact=%v", label, rep.Route, exact && p.qualifies)
				}
				if isExact && reportKey(rep) != reportKey(Report{Algorithm: sum.BinnedAlg, Route: selector.RouteExact}) {
					t.Errorf("%s: exact route report %s", label, reportKey(rep))
				}
			}
		}
	}
}

// TestExactRouteAllocs pins the serial exact route as allocation-free.
func TestExactRouteAllocs(t *testing.T) {
	xs := gen.Spec{N: 4096, Cond: 1e10, DynRange: 24, Seed: 50}.Generate()
	rt := New(0)
	if _, rep := rt.Sum(xs); rep.Route != selector.RouteExact {
		t.Fatalf("fixture took route %v", rep.Route)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink, _ = rt.Sum(xs) }); n != 0 {
		t.Errorf("exact route allocates %v per call", n)
	}
	_ = sink
}
