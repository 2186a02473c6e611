package selector

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/sum"
)

// bnOnly is a user policy that always picks BN. It qualifies for
// nothing: the exact route is decided from the policy's type, and a
// user type gives no proof.
type bnOnly struct{}

func (bnOnly) Select(Profile, Requirement) (sum.Algorithm, float64) { return sum.BinnedAlg, 0 }

// TestExactRouteQualification pins which policies take the exact route
// at tolerance 0.
func TestExactRouteQualification(t *testing.T) {
	for _, c := range []struct {
		name string
		pol  Policy
		want bool
	}{
		{"heuristic", NewHeuristicPolicy(), true},
		{"heuristic/cst=0", HeuristicPolicy{}, false},
		{"heuristic/cst=tiny", HeuristicPolicy{Params: ModelParams{CST: 1e-300}}, false},
		{"prob", NewProbabilisticPolicy(0), true},
		{"prob/balanced", ProbabilisticPolicy{Lambda: 3, Plan: BalancedPlan}, true},
		{"prob/lambda=tiny", ProbabilisticPolicy{Lambda: 1e-300}, false},
		{"prob/lambda=huge", ProbabilisticPolicy{Lambda: 1e300}, false},
		{"prob/lambda=nan", ProbabilisticPolicy{Lambda: math.NaN()}, false},
		{"prob/fallback=static-bn", ProbabilisticPolicy{Fallback: Static{Alg: sum.BinnedAlg}}, true},
		{"prob/fallback=static-st", ProbabilisticPolicy{Fallback: Static{Alg: sum.StandardAlg}}, false},
		{"prob/fallback=user", ProbabilisticPolicy{Fallback: bnOnly{}}, false},
		{"static-bn", Static{Alg: sum.BinnedAlg}, true},
		{"static-st", Static{Alg: sum.StandardAlg}, false},
		{"static-n", Static{Alg: sum.NeumaierAlg}, false},
		{"static-pr", Static{Alg: sum.PreroundedAlg}, false},
		{"scan", NewCalibratedPolicy(nil, 0), false},
		{"surface", FitSurface(nil, nil, 0), false},
		{"user", bnOnly{}, false},
		{"nil", nil, false},
	} {
		if got := exactAtZero(c.pol); got != c.want {
			t.Errorf("%s: exactAtZero = %v, want %v", c.name, got, c.want)
		}
	}
}

// qualifyingPolicies are the tolerance-0 exact-route policies under
// test, each also run behind a decision cache.
func qualifyingPolicies() map[string]Policy {
	return map[string]Policy{
		"heuristic":     NewHeuristicPolicy(),
		"prob":          NewProbabilisticPolicy(0),
		"prob-balanced": ProbabilisticPolicy{Lambda: 3, Plan: BalancedPlan},
		"static-bn":     Static{Alg: sum.BinnedAlg},
	}
}

// TestExactRoutePicksAreBN checks the claim the route rests on at the
// profile level: each qualifying policy, bare and cached, picks BN at
// tolerance 0 on every finite profile with N ≥ 2 and Σ|x| ≥ exactFloor.
// The fig12 profiles are also rescaled to sit just above the floor and
// near the top of the range.
func TestExactRoutePicksAreBN(t *testing.T) {
	profs := map[string]Profile{}
	for name, p := range invariantProfiles() {
		if p.N >= 2 && p.SumAbs.Float64() > 0 {
			profs[name] = p
		}
	}
	seed := uint64(900)
	for _, k := range []float64{1, 1e4, 1e10, math.Inf(1)} {
		seed++
		xs := gen.Spec{N: 3000, Cond: k, DynRange: 24, Seed: seed}.Generate()
		maxAbs := 0.0
		for _, x := range xs {
			maxAbs = math.Max(maxAbs, math.Abs(x))
		}
		for _, scale := range []float64{exactFloor, 0x1p1000} {
			ys := make([]float64, len(xs))
			for i, x := range xs {
				ys[i] = x / maxAbs * scale
			}
			profs[fmt.Sprintf("k=%g/max=%g", k, scale)] = ProfileOf(ys)
		}
	}
	for pname, pol := range qualifyingPolicies() {
		for _, cached := range []bool{false, true} {
			s := &Selector{Policy: pol}
			if cached {
				s.Cache = NewDecisionCache(CacheConfig{})
			}
			for name, p := range profs {
				if alg := s.Decide(p).Alg; alg != sum.BinnedAlg {
					t.Errorf("%s cached=%v %s: tolerance-0 pick %v, want BN", pname, cached, name, alg)
				}
			}
		}
	}
}

// legacySum is the profiled route every call took before the exact
// route: fused profile, decision (through the cache when attached), and
// the pick's sum. It is the oracle for the exact-route pins.
func legacySum(s *Selector, xs []float64) (float64, sum.Algorithm) {
	fp := FusedProfileSum(xs)
	if fp.Profile.NonFinite {
		return fp.ST, sum.StandardAlg
	}
	d := s.Decide(fp.Profile)
	if v, ok := fp.SpecSum(d.Alg); ok {
		return v, d.Alg
	}
	if d.Alg == sum.PreroundedAlg {
		return sum.PreroundedWith(d.PR, xs), d.Alg
	}
	return d.Alg.Sum(xs), d.Alg
}

// legacySumParallel is legacySum on the engine.
func legacySumParallel(s *Selector, xs []float64, cfg parallel.Config) (float64, sum.Algorithm) {
	fp := FusedProfileSumParallel(xs, cfg)
	if fp.Profile.NonFinite {
		return sum.Standard(xs), sum.StandardAlg
	}
	d := s.Decide(fp.Profile)
	if cfg.LaneWidth <= 1 {
		if v, ok := fp.SpecSum(d.Alg); ok {
			return v, d.Alg
		}
	}
	if d.Alg == sum.PreroundedAlg {
		return parallel.SumPR(d.PR, xs, cfg), d.Alg
	}
	return parallel.Sum(d.Alg, xs, cfg), d.Alg
}

// exactCases are the exact-route pin inputs: tiny counts, zeros, exact
// zero sums, overflow, NaN/±Inf, subnormal and below-floor data, and
// the fig12 classes at sizes spanning several engine chunks.
func exactCases() map[string][]float64 {
	big, negz := math.MaxFloat64, math.Copysign(0, -1)
	inf, nan := math.Inf(1), math.NaN()
	cases := map[string][]float64{
		"n=0":                 nil,
		"n=1":                 {3.25},
		"n=2":                 {1.5, 2.25},
		"n=3":                 {1, -2, 4.5},
		"zeros":               {0, negz, 0, negz},
		"neg-zeros":           {negz, negz},
		"zero-sum":            {1, -1},
		"zero-sum-wide":       {1e300, 3, -1e300, -3},
		"zero-sum-tiny-first": {0x1p-1074, 1, -1, -0x1p-1074},
		"overflow":            {big, big},
		"overflow-neg":        {-big, -big, 1},
		"overflow-cancel":     {big, big, -big, -big},
		"overflow-partial":    {big, big, -big},
		"nan":                 {1, nan, 2},
		"+inf":                {1, inf},
		"-inf":                {-inf, 2},
		"both-inf":            {inf, 1, -inf},
		"subnormal":           {0x1p-1074, 0x1.8p-1060, -0x1p-1065},
		"tiny":                {3e-170, 1e-170, -2e-170},
		"floor-pair":          {0x1p-401, 0x1p-401},
		"below-floor":         {0x1p-402, 0x1p-403},
	}
	seed := uint64(950)
	for _, k := range []float64{1, 1e4, 1e10, math.Inf(1)} {
		seed++
		cases[fmt.Sprintf("fig12/k=%g", k)] = gen.Spec{N: 10000, Cond: k, DynRange: 24, Seed: seed}.Generate()
	}
	poisoned := gen.Spec{N: 10000, Cond: 1e4, DynRange: 24, Seed: 960}.Generate()
	poisoned[7777] = nan
	cases["fig12/nan"] = poisoned
	return cases
}

// wantExact states, in terms of the data, when the exact route must
// serve a tolerance-0 call under a qualifying policy: at least two
// values, a finite exact sum (so no NaN/±Inf and no overflow), and
// either that sum or some element at least exactFloor in magnitude.
func wantExact(xs []float64) bool {
	if len(xs) < 2 {
		return false
	}
	v := sum.Binned(xs)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	if math.Abs(v) >= exactFloor {
		return true
	}
	for _, x := range xs {
		if math.Abs(x) >= exactFloor {
			return true
		}
	}
	return false
}

// TestExactRouteMatchesLegacy pins SelectAndSum and SelectAndSumParallel
// against the profiled route: same bits and algorithm for every input
// and configuration, RouteExact exactly where wantExact says, and an
// empty profile and bounds there. Policies that do not qualify never
// take the route.
func TestExactRouteMatchesLegacy(t *testing.T) {
	type engine struct {
		name string
		cfg  *parallel.Config
	}
	engines := []engine{{name: "serial"}}
	for _, w := range []int{1, 3} {
		for _, l := range []int{1, 4} {
			engines = append(engines, engine{fmt.Sprintf("w=%d/l=%d", w, l),
				&parallel.Config{Workers: w, ChunkSize: 1 << 12, LaneWidth: l}})
		}
	}
	type config struct {
		name      string
		pol       Policy
		cached    bool
		qualifies bool
	}
	var configs []config
	for name, pol := range qualifyingPolicies() {
		configs = append(configs, config{name, pol, false, true}, config{name + "+cache", pol, true, true})
	}
	for _, alg := range []sum.Algorithm{sum.StandardAlg, sum.NeumaierAlg, sum.PreroundedAlg} {
		configs = append(configs, config{"static-" + alg.String(), Static{Alg: alg}, false, false})
	}
	configs = append(configs, config{"user", bnOnly{}, false, false})
	newSel := func(c config) *Selector {
		s := &Selector{Policy: c.pol}
		if c.cached {
			s.Cache = NewDecisionCache(CacheConfig{Capacity: 64})
		}
		return s
	}
	for cname, xs := range exactCases() {
		exact := wantExact(xs)
		for _, c := range configs {
			for _, e := range engines {
				label := fmt.Sprintf("%s/%s/%s", cname, c.name, e.name)
				var got, want float64
				var sel Selection
				var wantAlg sum.Algorithm
				if e.cfg == nil {
					got, sel = newSel(c).SelectAndSum(xs)
					want, wantAlg = legacySum(newSel(c), xs)
				} else {
					got, sel = newSel(c).SelectAndSumParallel(xs, *e.cfg)
					want, wantAlg = legacySumParallel(newSel(c), xs, *e.cfg)
				}
				if math.Float64bits(got) != math.Float64bits(want) || sel.Alg != wantAlg {
					t.Errorf("%s: %x %v, profiled route %x %v", label,
						math.Float64bits(got), sel.Alg, math.Float64bits(want), wantAlg)
				}
				if isExact := sel.Route == RouteExact; isExact != (exact && c.qualifies) {
					t.Errorf("%s: route %v, want exact=%v", label, sel.Route, exact && c.qualifies)
				}
				if sel.Route == RouteExact && (sel.Profile != Profile{} || sel.Bounds != Bounds{} || sel.PR != nil) {
					t.Errorf("%s: exact route reports %+v", label, sel)
				}
			}
		}
	}
}

// TestExactRouteOnlyAtToleranceZero: any nonzero tolerance keeps the
// profiled route, even for a policy that qualifies at zero.
func TestExactRouteOnlyAtToleranceZero(t *testing.T) {
	xs := gen.Spec{N: 4096, Cond: 1e10, DynRange: 24, Seed: 970}.Generate()
	for _, tol := range []float64{1e-300, 1e-15, 1e-6} {
		if _, sel := New(tol).SelectAndSum(xs); sel.Route == RouteExact {
			t.Errorf("tol=%g took the exact route", tol)
		}
	}
	if _, sel := New(0).SelectAndSum(xs); sel.Route != RouteExact {
		t.Errorf("tol=0 took route %v", sel.Route)
	}
}
