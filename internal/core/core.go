// Package core assembles the paper's proposal into a deployable runtime:
// data-aware, requirement-driven selection of reduction algorithms. A
// Runtime owns a reproducibility requirement and a selection policy;
// every reduction it performs is preceded by a cheap profiling pass
// (local, streaming, mergeable across ranks) whose result picks the
// cheapest algorithm expected to stay within the requirement. The one
// exception is Sum at tolerance 0 under a policy whose pick there is
// always the exact binned rung: it sums with that rung directly (see
// Runtime.Sum).
//
// The package also implements the paper's closing suggestion —
// "apply cheaper but acceptably accurate reduction algorithms to
// subtrees based on the profile" — as HierarchicalSum: the operand set
// is partitioned into blocks, each block is profiled and reduced with
// its own cheapest-acceptable algorithm, and the per-block partial sums
// (now few) are combined with a reproducible operator.
package core

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/selector"
	"repro/internal/sum"
	"repro/internal/tree"
)

// Runtime is an intelligent reduction runtime.
type Runtime struct {
	sel *selector.Selector
	// useEngine enables the deterministic chunked parallel engine for
	// Sum and HierarchicalSum on inputs spanning at least two chunks.
	useEngine bool
	// par configures the engine (zero fields mean auto).
	par parallel.Config
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithPolicy substitutes the selection policy (e.g. the bound-driven
// selector.ProbabilisticPolicy instead of the analytic default). To
// serve from a host calibration artifact, use WithCalibration.
func WithPolicy(p selector.Policy) Option {
	return func(rt *Runtime) { rt.sel.Policy = p }
}

// WithWorkers routes large reductions through the deterministic chunked
// parallel engine with the given pool size (0 selects GOMAXPROCS). The
// engine's results are bitwise-identical across worker counts — the
// chunk plan, not the scheduling, determines the bits — but for
// order-sensitive algorithms they differ (deterministically) from the
// engine-less streaming path, so enabling the engine is a new, equally
// reproducible, summation plan rather than a transparent accelerator.
func WithWorkers(n int) Option {
	return func(rt *Runtime) {
		rt.useEngine = true
		rt.par.Workers = n
	}
}

// WithChunkSize sets the engine's fixed partition width in elements
// (0 selects parallel.DefaultChunkSize) and enables the engine. The
// chunk size is part of the reproducibility contract: two runtimes agree
// bitwise only if they use the same chunk size.
func WithChunkSize(c int) Option {
	return func(rt *Runtime) {
		rt.useEngine = true
		rt.par.ChunkSize = c
	}
}

// WithLaneWidth sets the engine's fixed accumulator-lane count (1, 2, 4,
// or 8; 0 selects 1, the legacy single-accumulator bits) and enables the
// engine. Wider lanes break the serial floating-point dependency chain
// inside each chunk fold for instruction-level parallelism while staying
// bitwise-identical across worker counts and runs — but, like the chunk
// size, the lane width is part of the reproducibility contract: two
// runtimes agree bitwise only if they use the same lane width. See
// parallel.Config.LaneWidth.
func WithLaneWidth(k int) Option {
	return func(rt *Runtime) {
		rt.useEngine = true
		rt.par.LaneWidth = k
	}
}

// WithDecisionCache attaches a quantized decision cache of the given
// capacity (entries; <= 0 selects the default 4096) to the runtime's
// selector: selection decisions are memoized per profile bucket, so
// steady-state traffic skips policy evaluation. Decisions are computed
// from each bucket's conservative canonical representative — a pure
// function of the bucket — so results stay deterministic and
// independent of request order or cache capacity; see
// selector.DecisionCache for the exact semantics.
func WithDecisionCache(capacity int) Option {
	return WithDecisionCacheConfig(selector.CacheConfig{Capacity: capacity})
}

// WithDecisionCacheConfig is WithDecisionCache with full control over
// the cache geometry (capacity and shard count for concurrent callers).
func WithDecisionCacheConfig(cfg selector.CacheConfig) Option {
	return func(rt *Runtime) { rt.sel.Cache = selector.NewDecisionCache(cfg) }
}

// WithCalibration installs a host calibration artifact (cmd/calibrate)
// as the runtime's selection policy: the artifact's measurements are
// fitted once into a selection surface, so every cold-miss decision is
// a few array comparisons instead of a table scan, and a decision cache
// is attached (if none was configured) so repeat traffic is a hash
// probe. Apply after any WithDecisionCacheConfig option you want to
// keep.
func WithCalibration(cal *selector.Calibration) Option {
	return func(rt *Runtime) {
		rt.sel.Policy = cal.SurfacePolicy()
		if rt.sel.Cache == nil {
			rt.sel.Cache = selector.NewDecisionCache(selector.CacheConfig{})
		}
	}
}

// New returns a Runtime that keeps the relative run-to-run variability
// of its reductions within tolerance (0 demands bitwise reproducibility).
func New(tolerance float64, opts ...Option) *Runtime {
	rt := &Runtime{sel: selector.New(tolerance)}
	for _, o := range opts {
		o(rt)
	}
	return rt
}

// Selector exposes the underlying selector (for distributed use via
// selector.AdaptiveReduce).
func (rt *Runtime) Selector() *selector.Selector { return rt.sel }

// Tolerance returns the configured variability tolerance.
func (rt *Runtime) Tolerance() float64 { return rt.sel.Req.Tolerance }

// CacheStats snapshots the decision cache's hit/miss/occupancy counters;
// ok is false when no cache is attached (see WithDecisionCache).
func (rt *Runtime) CacheStats() (selector.CacheStats, bool) {
	if rt.sel.Cache == nil {
		return selector.CacheStats{}, false
	}
	return rt.sel.Cache.Stats(), true
}

// Report describes one adaptive reduction: what was profiled, what was
// chosen, what the policy predicted, and which route produced the sum.
type Report struct {
	Algorithm sum.Algorithm
	// Profile is the profile the decision was made from. It is the zero
	// value on the exact route (Route == selector.RouteExact), which
	// never profiles; selector.ProfileOf computes it on demand.
	Profile   selector.Profile
	Predicted float64
	// Bounds are the Hallman–Ipsen per-algorithm forward-error bound
	// estimates computed from the profile the decision was made from
	// (the cache bucket's conservative representative on cached paths)
	// — pure arithmetic on already-collected statistics, no extra data
	// pass. Bounds.Conclusive is false on the non-finite fallback. On
	// the exact route Bounds is the zero value; selector.ComputeBounds
	// on selector.ProfileOf(xs) gives the profiled route's bounds.
	Bounds selector.Bounds
	// PRConfig is set when the prerounded operator was chosen: the
	// tolerance-tuned bin configuration (selector.TunePR).
	PRConfig *sum.PRConfig
	// NonFinite is set when the profile was poisoned by NaN/±Inf inputs
	// and the runtime fell back to the standard iterative sum — the one
	// operator whose result follows IEEE non-finite propagation exactly
	// (compensated corrections manufacture NaN out of Inf−Inf, and PR's
	// binning is undefined on non-finite operands). No variability
	// contract applies to such data.
	NonFinite bool
	// Route is how Sum produced the result: the speculative profile
	// pass (RouteFast), a second pass with the pick (RouteSecondPass,
	// also every Reduce), the non-finite fallback (RouteNonFinite), or
	// BN with no profile at tolerance 0 (RouteExact).
	Route selector.Route
}

// String summarizes the report.
func (r Report) String() string {
	if r.Route == selector.RouteExact {
		return fmt.Sprintf("chose %s (%s) by the exact route (tolerance 0, not profiled)",
			r.Algorithm, r.Algorithm.FullName())
	}
	if r.NonFinite {
		return fmt.Sprintf("chose %s (%s) for %v (non-finite input; no variability contract)",
			r.Algorithm, r.Algorithm.FullName(), r.Profile)
	}
	return fmt.Sprintf("chose %s (%s) for %v (predicted variability %.3g)",
		r.Algorithm, r.Algorithm.FullName(), r.Profile, r.Predicted)
}

// Sum profiles xs, selects the cheapest acceptable algorithm, and sums.
// When the prerounded operator is selected its fold budget is tuned to
// the tolerance (selector.TunePR) — the paper's precision-tuning idea
// applied to the one algorithm with a precision knob.
//
// The pass is fused and speculative (selector.SelectAndSum): profiling
// already yields the ST and Neumaier answers, so those selections never
// read xs a second time.
//
// At tolerance 0 under the default heuristic policy, a probabilistic
// one or Static{BN}, Sum takes the exact route: it sums with BN, the
// pick those policies make on every finite, non-degenerate input, and
// skips the profile, decision and bounds, leaving Report.Profile and
// Report.Bounds zero. All-zero, tiny, non-finite and overflowing inputs
// and n < 2 fall back to the profiled route, so the bits and algorithm
// are those of the profiled route for every input.
//
// With the engine enabled (WithWorkers/WithChunkSize/WithLaneWidth) and
// an input spanning at least two chunks, both the profiling pass and
// the sum run on the deterministic chunked worker pool
// (selector.SelectAndSumParallel); the result is bitwise-stable across
// worker counts. Lane widths above 1 skip the speculative answers and
// always sum in a second lane-plan pass.
func (rt *Runtime) Sum(xs []float64) (float64, Report) {
	if rt.engineFor(len(xs)) {
		v, sel := rt.sel.SelectAndSumParallel(xs, rt.par)
		return v, reportOf(sel)
	}
	v, sel := rt.sel.SelectAndSum(xs)
	return v, reportOf(sel)
}

// reportOf translates a fused-path selection into the runtime's report.
func reportOf(sel selector.Selection) Report {
	rep := Report{
		Algorithm: sel.Alg,
		Profile:   sel.Profile,
		Predicted: sel.Predicted,
		Bounds:    sel.Bounds,
		PRConfig:  sel.PR,
		NonFinite: sel.Route == selector.RouteNonFinite,
		Route:     sel.Route,
	}
	if rep.NonFinite {
		rep.Predicted = math.Inf(1)
	}
	return rep
}

// engineFor reports whether the parallel engine should run a reduction
// of n values: it must be enabled and the input must span at least two
// chunks (below that the plan degenerates to the sequential pass).
func (rt *Runtime) engineFor(n int) bool {
	if !rt.useEngine {
		return false
	}
	cs := rt.par.ChunkSize
	if cs <= 0 {
		cs = parallel.DefaultChunkSize
	}
	return n > cs
}

// Reduce profiles xs and reduces it under the given tree plan with the
// selected algorithm — the paper's scenario where the tree is imposed
// by the system, not the algorithm. NaN/±Inf-poisoned inputs fall back
// to the standard operator (see Report.NonFinite).
func (rt *Runtime) Reduce(p tree.Plan, xs []float64) (float64, Report) {
	prof := selector.ProfileOf(xs)
	if prof.NonFinite {
		v := selector.ReduceTreeWith(sum.StandardAlg, p, xs)
		return v, Report{Algorithm: sum.StandardAlg, Profile: prof,
			Predicted: math.Inf(1), Bounds: selector.ComputeBounds(prof, 0),
			NonFinite: true, Route: selector.RouteNonFinite}
	}
	d := rt.sel.Decide(prof)
	v := selector.ReduceTreeWith(d.Alg, p, xs)
	return v, Report{Algorithm: d.Alg, Profile: prof, Predicted: d.Predicted,
		Bounds: d.Bounds}
}

// BlockReport records the per-block decision of a hierarchical sum.
type BlockReport struct {
	Start, End int
	Report     Report
}

// HierarchicalSum implements subtree-level selection: xs is split into
// blocks of blockSize, each block is profiled independently and reduced
// with its own cheapest acceptable algorithm, and the block partials
// are combined with the cheapest reproducible operator on the ladder
// (sum.CheapestReproducible — the binned rung) so the combination step
// never reintroduces order sensitivity.
//
// Blocks whose local data is benign (same sign, narrow range) get the
// cheap operator even when the global set is hostile — the cost saving
// the paper's Section V-D argues for.
//
// Caveat: the tolerance contract applies per block. When blocks cancel
// strongly against each other, the global relative error can exceed the
// per-block tolerance by the ratio of global to block condition
// numbers; use Sum (whole-set profiling) when the contract must hold
// for the global result.
//
// With the engine enabled, blocks are profiled and summed concurrently
// on the worker pool. Each block's result is a pure function of the
// block's elements and the partials are folded in block order with a
// reproducible operator, so the global result is bitwise-identical to
// the sequential run regardless of worker count.
func (rt *Runtime) HierarchicalSum(xs []float64, blockSize int) (float64, []BlockReport) {
	if blockSize <= 0 {
		blockSize = 4096
	}
	n := len(xs)
	if n == 0 {
		return 0, nil
	}
	nb := (n + blockSize - 1) / blockSize
	workers := 1
	if rt.useEngine {
		workers = rt.par.Workers // 0 selects GOMAXPROCS inside For
	}
	vals := make([]float64, nb)
	reports := make([]BlockReport, nb)
	parallel.For(nb, workers, func(i int) {
		lo := i * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		v, rep := rt.Sum(xs[lo:hi])
		vals[i] = v
		reports[i] = BlockReport{Start: lo, End: hi, Report: rep}
	})
	// Block partials are folded with the cheapest reproducible rung of
	// the ladder so the final combination is insensitive to block order
	// (e.g. if blocks completed on different ranks at different times);
	// the fold runs in block order anyway.
	acc := sum.CheapestReproducible().NewAccumulator()
	for _, v := range vals {
		acc.Add(v)
	}
	return acc.Sum(), reports
}

// CostSavings summarizes a hierarchical run: the fraction of blocks that
// got away with an algorithm cheaper than the one a whole-set profile
// would have required.
func CostSavings(whole Report, blocks []BlockReport) float64 {
	if len(blocks) == 0 {
		return 0
	}
	cheaper := 0
	for _, b := range blocks {
		if b.Report.Algorithm.CostRank() < whole.Algorithm.CostRank() {
			cheaper++
		}
	}
	return float64(cheaper) / float64(len(blocks))
}
