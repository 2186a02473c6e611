package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/fpu"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/selector"
	"repro/internal/sum"
	"repro/internal/sum32"
	"repro/internal/textplot"
	"repro/internal/tree"
)

// BoundsExtResult compares the three selection policies — the
// Hallman–Ipsen probabilistic-bound policy, the measured calibration
// table, and the analytic heuristic — on the Fig 12 question: given a
// variability tolerance, which algorithm do you run? For every
// (k, dr) cell and every Fig 12 threshold it records the cost rank of
// each policy's pick and whether the pick's measured relative
// variability actually violated the tolerance, plus the per-call
// decision cost of each policy. A float32 section evaluates the same
// bound machinery in the sum32 regime (u = 2^-24).
type BoundsExtResult struct {
	N, Trials, Cells int
	Thresholds       []float64
	// Policies in presentation order: prob, calib, heur.
	Policies []string
	// MeanRank[policy][ti] is the mean cost rank of the picks at
	// threshold ti (lower = cheaper).
	MeanRank map[string][]float64
	// Violations[policy][ti] counts picks whose measured relative
	// variability exceeded the threshold.
	Violations map[string][]int
	// DecideNs[policy] is the measured cost of one Select call.
	DecideNs map[string]float64
	// ProbNeverCostlier reports the acceptance claim: across every
	// (threshold, cell), the probabilistic pick's cost rank is at most
	// the calibrated pick's.
	ProbNeverCostlier bool
	// ProbCheaperPicks / EqualPicks break the comparison down.
	ProbCheaperPicks, EqualPicks, ProbCostlierPicks int
	Sum32                                           BoundsSum32
}

// BoundsSum32 is the float32-regime section: λ-confidence relative
// bounds at u = 2^-24 against the worst measured relative error of the
// sum32 accumulators over many summation orders.
type BoundsSum32 struct {
	N, Orders int
	// BoundRel[acc] is the probabilistic relative bound; WorstRel[acc]
	// the worst measured relative error.
	BoundRel map[string]float64
	WorstRel map[string]float64
	// Holds reports WorstRel <= BoundRel for every accumulator.
	Holds bool
}

// boundsPolicyNames orders the compared policies.
var boundsPolicyNames = []string{"prob", "calib", "heur"}

// BoundsExt runs the experiment.
func BoundsExt(cfg Config) BoundsExtResult {
	n := cfg.pick(1<<12, 1<<14)
	trials := cfg.pick(40, 100)
	ks, drs := gridKs(cfg), gridDRs(cfg)
	cells := grid.KDRGrid(n, ks, drs)
	gcfg := grid.Config{
		Algorithms: sum.SelectionLadder,
		Trials:     trials,
		Shape:      tree.Balanced,
		Seed:       cfg.Seed ^ 0xB0D5,
	}
	// The calibration table is the CalibratedPolicy's own offline
	// sweep: same envelope, independent seed (a real deployment would
	// not calibrate on its serving data), over the paper's four
	// algorithms — the measured baseline this experiment compares the
	// bound-driven policy against.
	calib := selector.Calibrate(selector.CalibrationConfig{
		Ns: []int{n}, Ks: ks, DRs: drs,
		Algorithms: sum.PaperAlgorithms,
		Trials:     cfg.pick(20, 50),
		Seed:       cfg.Seed ^ 0xCA11B,
	})
	policies := map[string]selector.Policy{
		// Balanced plan: the grid's trees are the execution model.
		"prob":  selector.ProbabilisticPolicy{Plan: selector.BalancedPlan},
		"calib": calib,
		"heur":  selector.NewHeuristicPolicy(),
	}

	res := BoundsExtResult{
		N: n, Trials: trials, Cells: len(cells),
		Thresholds:        Fig12Thresholds,
		Policies:          boundsPolicyNames,
		MeanRank:          map[string][]float64{},
		Violations:        map[string][]int{},
		DecideNs:          map[string]float64{},
		ProbNeverCostlier: true,
	}
	for _, name := range boundsPolicyNames {
		res.MeanRank[name] = make([]float64, len(Fig12Thresholds))
		res.Violations[name] = make([]int, len(Fig12Thresholds))
	}

	var lastProfile selector.Profile
	for i, cell := range cells {
		seed := fpu.MixSeed(gcfg.Seed, uint64(i))
		measured := grid.EvalCell(cell, gcfg, seed)
		xs := gen.Spec{N: cell.N, Cond: cell.Cond, DynRange: cell.DynRange, Seed: seed}.Generate()
		p := selector.ProfileOf(xs)
		lastProfile = p
		for ti, tol := range Fig12Thresholds {
			req := selector.Requirement{Tolerance: tol}
			ranks := map[string]int{}
			for name, pol := range policies {
				alg, _ := pol.Select(p, req)
				ranks[name] = alg.CostRank()
				res.MeanRank[name][ti] += float64(alg.CostRank())
				if measured.RelStdDev[alg] > tol {
					res.Violations[name][ti]++
				}
			}
			switch {
			case ranks["prob"] < ranks["calib"]:
				res.ProbCheaperPicks++
			case ranks["prob"] == ranks["calib"]:
				res.EqualPicks++
			default:
				res.ProbCostlierPicks++
				res.ProbNeverCostlier = false
			}
		}
	}
	for _, name := range boundsPolicyNames {
		for ti := range Fig12Thresholds {
			res.MeanRank[name][ti] /= float64(len(cells))
		}
	}

	// Decision cost: one Select on a representative profile, amortized
	// over a fixed iteration count.
	req := selector.Requirement{Tolerance: Fig12Thresholds[len(Fig12Thresholds)/2]}
	const iters = 2000
	for name, pol := range policies {
		start := time.Now()
		for i := 0; i < iters; i++ {
			pol.Select(lastProfile, req)
		}
		res.DecideNs[name] = float64(time.Since(start).Nanoseconds()) / iters
	}

	res.Sum32 = boundsSum32(cfg)
	return res
}

// boundsSum32 evaluates the bound estimators at u = 2^-24 against the
// float32 accumulators: the data embeds exactly into float64, so the
// profile is exact and only the unit roundoff changes regime.
func boundsSum32(cfg Config) BoundsSum32 {
	n := cfg.pick(1<<12, 1<<15)
	orders := cfg.pick(30, 100)
	r := fpu.NewRNG(cfg.Seed ^ 0xB32)
	xs32 := make([]float32, n)
	xs64 := make([]float64, n)
	for i := range xs32 {
		v := float32(math.Ldexp(r.Float64()+0.5, r.Intn(12)-6))
		if r.Bool() {
			v = -v
		}
		xs32[i] = v
		xs64[i] = float64(v)
	}
	exact := float64(sum32.ExactTo32(xs32))
	p := selector.ProfileOf(xs64)
	b32 := selector.ComputeBoundsU(p, 0, 0x1p-24, selector.SerialPlan)
	b64 := selector.ComputeBounds(p, 0)
	out := BoundsSum32{
		N: n, Orders: orders,
		BoundRel: map[string]float64{
			"naive":   b32.Rel(sum.StandardAlg).Prob,
			"kahan32": b32.Rel(sum.KahanAlg).Prob,
			// Wide: float64 serial chain plus one final float32 rounding.
			"wide": b64.Rel(sum.StandardAlg).Prob + 0x1p-24,
		},
		WorstRel: map[string]float64{},
	}
	accs := map[string]func([]float32) float32{
		"naive": sum32.Naive, "kahan32": sum32.Kahan32, "wide": sum32.Wide,
	}
	work := append([]float32(nil), xs32...)
	rr := fpu.NewRNG(cfg.Seed ^ 0xB33)
	for o := 0; o < orders; o++ {
		for i := len(work) - 1; i > 0; i-- {
			j := rr.Intn(i + 1)
			work[i], work[j] = work[j], work[i]
		}
		for name, f := range accs {
			rel := math.Abs(float64(f(work))-exact) / math.Abs(exact)
			if rel > out.WorstRel[name] {
				out.WorstRel[name] = rel
			}
		}
	}
	out.Holds = true
	for name, worst := range out.WorstRel {
		if worst > out.BoundRel[name] {
			out.Holds = false
		}
	}
	return out
}

// ID implements Result.
func (BoundsExtResult) ID() string { return "ext-bounds" }

// String renders the policy comparison.
func (r BoundsExtResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ext-bounds: probabilistic vs calibrated vs heuristic selection (n=%d, %d cells, %d trees/cell)\n\n",
		r.N, r.Cells, r.Trials)
	header := []string{"threshold"}
	for _, pol := range r.Policies {
		header = append(header, pol+" rank", pol+" viol")
	}
	var rows [][]string
	for ti, th := range r.Thresholds {
		row := []string{fmt.Sprintf("%.2g", th)}
		for _, pol := range r.Policies {
			row = append(row,
				fmt.Sprintf("%.2f", r.MeanRank[pol][ti]),
				fmt.Sprintf("%d/%d", r.Violations[pol][ti], r.Cells))
		}
		rows = append(rows, row)
	}
	b.WriteString(textplot.Table(header, rows))
	fmt.Fprintf(&b, "\nprob vs calib picks: %d cheaper, %d equal, %d costlier (never costlier: %v)\n",
		r.ProbCheaperPicks, r.EqualPicks, r.ProbCostlierPicks, r.ProbNeverCostlier)
	fmt.Fprintf(&b, "decide cost: prob %.0f ns, calib %.0f ns, heur %.0f ns\n",
		r.DecideNs["prob"], r.DecideNs["calib"], r.DecideNs["heur"])
	fmt.Fprintf(&b, "\nfloat32 regime (n=%d, %d orders): bounds hold: %v\n",
		r.Sum32.N, r.Sum32.Orders, r.Sum32.Holds)
	for _, name := range []string{"naive", "kahan32", "wide"} {
		fmt.Fprintf(&b, "  %-8s worst rel err %.3g  vs  λ-bound %.3g\n",
			name, r.Sum32.WorstRel[name], r.Sum32.BoundRel[name])
	}
	return b.String()
}
