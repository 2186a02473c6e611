package selector

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/sum"
)

// Fused speculative serving path.
//
// A profile-then-sum route reads the data twice: once to build the
// selection profile, then once more with the operator the policy chose
// — 2x memory traffic even when the choice is the cheapest algorithm.
// The fused path folds the profile AND the two cheapest candidate
// answers (ST's plain sum and Neumaier's compensated pair — the
// profile's Σx accumulator is that pair) in one pass over xs
// (kernel.FusedProfileSum), then consults the policy. When the policy
// picks ST or Neumaier the answer is already in hand and the data is
// never read again; only escalations to PW/BN/K/CP/PR pay a second
// pass. Every fast-path result is bitwise-identical to what that
// operator's own fold computes, pinned by equivalence tests.

// FusedPass is the outcome of one fused profile+sum pass: the complete
// selection profile plus the speculative plain-sum shadow. The Neumaier
// speculation needs no extra field — it IS Profile.Sum.
type FusedPass struct {
	Profile Profile
	// ST is the plain left-to-right (or, for the parallel variant,
	// chunk-tree) sum of all elements including zeros and non-finite
	// values — exactly what sum.Standard / parallel.Sum(StandardAlg)
	// would return.
	ST float64
}

// passOf rebuilds the selector-level view of a kernel accumulator. The
// field mapping is 1:1; the kernel type exists only so the hot loop
// lives with its peer kernels and stays free of selector dependencies.
func passOf(a kernel.FusedAcc) FusedPass {
	return FusedPass{
		Profile: Profile{
			N:          a.N,
			Sum:        CSum{S: a.SumS, C: a.SumC},
			SumAbs:     CSum{S: a.AbsS, C: a.AbsC},
			MaxExp:     a.MaxExp,
			MinExp:     a.MinExp,
			HasNonzero: a.HasNonzero,
			Pos:        a.Pos,
			Neg:        a.Neg,
			NonFinite:  a.NonFinite,
		},
		ST: a.ST,
	}
}

// FusedProfileSum profiles xs and computes both speculative sums in a
// single serial pass. The profile is bit-identical to folding
// Profile.Add over xs, and the ST shadow to sum.Standard(xs).
func FusedProfileSum(xs []float64) FusedPass {
	return passOf(kernel.FusedProfileSum(xs))
}

// FusedProfileSumParallel is the engine variant: per-chunk fused folds
// combined with kernel.FusedAcc.Merge over the engine's fixed balanced
// tree. The profile matches ProfileOfParallel(xs, cfg) bit-for-bit at
// any worker count and lane width. The speculative sums match
// parallel.Sum(StandardAlg/NeumaierAlg, xs, cfg) only when
// cfg.LaneWidth <= 1: lane plans change the chunk-fold bits, so
// SelectAndSumParallel never serves them from this pass.
func FusedProfileSumParallel(xs []float64, cfg parallel.Config) FusedPass {
	a, ok := parallel.MapReduce(len(xs), cfg,
		func(lo, hi int) kernel.FusedAcc { return kernel.FusedProfileSum(xs[lo:hi]) },
		kernel.FusedAcc.Merge)
	if !ok {
		return FusedPass{}
	}
	return passOf(a)
}

// SpecSum returns the already-computed sum for alg, if this pass holds
// one:
//
//   - StandardAlg: always available — the ST shadow folds every element
//     (non-finite included) exactly as sum.Standard does.
//   - NeumaierAlg: available when no non-finite value was profiled (a
//     real Neumaier fold would have absorbed it; the profile pair
//     skipped it) and the pair itself stayed finite (on an intermediate
//     overflow the branch-free TwoSum residual and Neumaier's branched
//     residual can diverge; overflow is sticky, so a finite final pair
//     proves every intermediate step was finite and the equality exact).
//
// All other algorithms return ok=false: the caller escalates to a real
// second-pass fold.
func (fp FusedPass) SpecSum(alg sum.Algorithm) (float64, bool) {
	switch alg {
	case sum.StandardAlg:
		return fp.ST, true
	case sum.NeumaierAlg:
		if fp.Profile.NonFinite || !fp.Profile.Sum.Finite() {
			return 0, false
		}
		return fp.Profile.Sum.Float64(), true
	}
	return 0, false
}

// Decision is one memoizable selection outcome: the chosen algorithm,
// its predicted variability, the Hallman–Ipsen forward-error bound
// estimates for the profile it was made from, and — when the choice is
// PR — the tuned prerounding configuration. It is a pure function of
// (policy, profile, requirement), which is what makes the decision
// cache sound; cached decisions carry the bounds of the bucket's
// conservative representative, so a hit and a miss report identical
// (and never optimistic) bounds.
type Decision struct {
	Alg       sum.Algorithm
	Predicted float64
	// Bounds are the per-algorithm forward-error bound estimates
	// computed from the same profile the decision was made from (the
	// bucket representative on cached paths) — no extra data pass.
	Bounds Bounds
	// PR is the TunePR configuration; meaningful only when TunedPR.
	PR      sum.PRConfig
	TunedPR bool
}

// decide evaluates the policy (and, for PR selections, the tuner)
// directly, with no cache involved.
func decide(pol Policy, p Profile, req Requirement) Decision {
	alg, pred := pol.Select(p, req)
	d := Decision{Alg: alg, Predicted: pred, Bounds: boundsFor(pol, p)}
	if alg == sum.PreroundedAlg {
		d.PR = TunePR(p, req)
		d.TunedPR = true
	}
	return d
}

// Decide maps a profile to a selection decision under the selector's
// policy and requirement, going through the decision cache when one is
// attached. Poisoned (NonFinite) profiles always bypass the cache: they
// quantize onto the same bucket as merely ill-conditioned data but must
// keep the uncached poisoned-path behavior exactly.
func (s *Selector) Decide(p Profile) Decision {
	if s.Cache != nil && !p.NonFinite {
		return s.Cache.decide(s.Policy, p, s.Req)
	}
	return decide(s.Policy, p, s.Req)
}

// Route names how a select-and-sum call produced its result.
type Route uint8

const (
	// RouteSecondPass: the data was profiled, the policy consulted, and
	// the pick summed in a second pass over xs. It is the zero value,
	// so reports of calls that always profile first (core.Runtime.Reduce)
	// read as RouteSecondPass.
	RouteSecondPass Route = iota
	// RouteFast: the answer came out of the speculative profile pass
	// (an ST or Neumaier pick) — the data was read exactly once.
	RouteFast
	// RouteNonFinite: the profile saw NaN/±Inf, selection was skipped,
	// and the ST sum (which absorbs non-finite values with IEEE
	// semantics) was returned.
	RouteNonFinite
	// RouteExact: tolerance 0 under a policy whose pick there is always
	// BN (see exactAtZero) — BN summed directly, with no profile,
	// decision or bounds. The Selection's Profile and Bounds are zero
	// values; compute them with ProfileOf and ComputeBounds when needed.
	RouteExact
)

// String names the route.
func (r Route) String() string {
	switch r {
	case RouteSecondPass:
		return "second-pass"
	case RouteFast:
		return "fast"
	case RouteNonFinite:
		return "non-finite"
	case RouteExact:
		return "exact"
	}
	return "route(?)"
}

// Selection describes one fused select-and-sum call, for reporting.
type Selection struct {
	// Profile is the profile the decision was made from; zero on
	// RouteExact.
	Profile   Profile
	Alg       sum.Algorithm
	Predicted float64
	// Bounds are the decision's forward-error bound estimates (the
	// bucket representative's on cached paths; inconclusive on the
	// poisoned fallback; zero on RouteExact).
	Bounds Bounds
	// PR is the tuned prerounding configuration when Alg is PR.
	PR *sum.PRConfig
	// Route is how the result was produced.
	Route Route
}

// exactFloor is the magnitude below which the exact route does not
// vouch for the policy's pick. The probabilistic policy's ST estimate
// multiplies unit roundoff by the operand scale, so on data with
// Σ|x| below about 2^-540 it underflows to a zero prediction and the
// policy picks ST even at tolerance 0. At Σ|x| ≥ 2^-400 every term of
// that estimate stays a normal number (DESIGN §6h).
const exactFloor = 0x1p-400

// exactAtZero reports whether pol's tolerance-0 pick is BN on every
// finite profile with N ≥ 2 and Σ|x| ≥ exactFloor, bare or through a
// DecisionCache (whose representatives sit at unit scale with N ≥ 3):
//
//   - HeuristicPolicy: ST predicts CST·u·√n·k > 0 and BN, the next
//     SelectionLadder rung, predicts 0. CST is held to ≥ 2^-500 so the
//     product cannot underflow.
//   - ProbabilisticPolicy: on conclusive bounds ST's relative estimate
//     is positive for λ in [2^-100, 2^100]; inconclusive bounds go to
//     the fallback, which must qualify itself (nil is the heuristic).
//   - Static{BN}.
//
// Every other policy, including the calibrated surface and scan, keeps
// the profiled route.
func exactAtZero(pol Policy) bool {
	switch p := pol.(type) {
	case HeuristicPolicy:
		return p.Params.CST >= 0x1p-500
	case ProbabilisticPolicy:
		if l := p.lambda(); !(l >= 0x1p-100 && l <= 0x1p100) {
			return false
		}
		return p.Fallback == nil || exactAtZero(p.Fallback)
	case Static:
		return p.Alg == sum.BinnedAlg
	}
	return false
}

// exactRoute reports whether a call over n values may try the exact
// route: tolerance 0, at least two values (one value or none is an ST
// pick under every qualifying policy but Static{BN}), and a qualifying
// policy.
func (s *Selector) exactRoute(n int) bool {
	return s.Req.Tolerance == 0 && n >= 2 && exactAtZero(s.Policy)
}

// exactAccepts reports whether v, the BN sum of xs, is the profiled
// route's answer too. A finite BN sum proves xs holds no NaN/±Inf (BN
// propagates them). |v| ≥ exactFloor bounds Σ|x| from below; otherwise
// a scan for one element of that size does, and on cancelling data it
// stops at the first large element. All-zero, tiny, non-finite and
// overflowing inputs are refused and take the profiled route.
func exactAccepts(v float64, xs []float64) bool {
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

// SelectAndSum is the fused serving call: one pass to profile and
// speculate, a policy consult (cache-aware), and — only if the policy
// escalates past ST/Neumaier — a second pass with the selected
// operator. PR escalations run with the TunePR-sized configuration,
// like core.Runtime.Sum. Poisoned inputs fall back to the ST shadow,
// which equals sum.Standard(xs) bit-for-bit.
//
// At tolerance 0 under a qualifying policy (exactAtZero) the call
// first sums with BN alone and returns that on RouteExact when
// exactAccepts it; otherwise it continues down the profiled route, so
// every input keeps the profiled route's bits and algorithm.
func (s *Selector) SelectAndSum(xs []float64) (float64, Selection) {
	if s.exactRoute(len(xs)) {
		if v := sum.Binned(xs); exactAccepts(v, xs) {
			return v, Selection{Alg: sum.BinnedAlg, Route: RouteExact}
		}
	}
	fp := FusedProfileSum(xs)
	prof := fp.Profile
	if prof.NonFinite {
		return fp.ST, Selection{
			Profile: prof, Alg: sum.StandardAlg, Route: RouteNonFinite,
			Bounds: boundsFor(s.Policy, prof),
		}
	}
	d := s.Decide(prof)
	sel := Selection{Profile: prof, Alg: d.Alg, Predicted: d.Predicted, Bounds: d.Bounds}
	if v, ok := fp.SpecSum(d.Alg); ok {
		sel.Route = RouteFast
		return v, sel
	}
	if d.Alg == sum.PreroundedAlg {
		cfg := d.PR
		sel.PR = &cfg
		return sum.PreroundedWith(cfg, xs), sel
	}
	return d.Alg.Sum(xs), sel
}

// SelectAndSumParallel is SelectAndSum on the parallel engine: fused
// per-chunk folds, the same decision step, and parallel escalation.
// At cfg.LaneWidth > 1 the speculative answers are skipped (lane plans
// change which bits the chunk folds produce) and every pick runs the
// lane-plan second pass. Poisoned inputs fall back to one serial ST
// pass. The exact route runs BN on the engine.
func (s *Selector) SelectAndSumParallel(xs []float64, cfg parallel.Config) (float64, Selection) {
	if s.exactRoute(len(xs)) {
		if v := parallel.Sum(sum.BinnedAlg, xs, cfg); exactAccepts(v, xs) {
			return v, Selection{Alg: sum.BinnedAlg, Route: RouteExact}
		}
	}
	fp := FusedProfileSumParallel(xs, cfg)
	prof := fp.Profile
	if prof.NonFinite {
		return sum.Standard(xs), Selection{
			Profile: prof, Alg: sum.StandardAlg, Route: RouteNonFinite,
			Bounds: boundsFor(s.Policy, prof),
		}
	}
	d := s.Decide(prof)
	sel := Selection{Profile: prof, Alg: d.Alg, Predicted: d.Predicted, Bounds: d.Bounds}
	if cfg.LaneWidth <= 1 {
		if v, ok := fp.SpecSum(d.Alg); ok {
			sel.Route = RouteFast
			return v, sel
		}
	}
	if d.Alg == sum.PreroundedAlg {
		prCfg := d.PR
		sel.PR = &prCfg
		return parallel.SumPR(prCfg, xs, cfg), sel
	}
	return parallel.Sum(d.Alg, xs, cfg), sel
}
