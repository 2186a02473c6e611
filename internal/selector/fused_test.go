package selector

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/sum"
)

func fbits(v float64) uint64 { return math.Float64bits(v) }

// fusedCases spans the generator corners plus the fused loop's
// special-cased inputs: zeros (both signs), subnormals, poison, empty.
func fusedCases() map[string][]float64 {
	cases := map[string][]float64{
		"empty":  nil,
		"single": {3.25},
		"zeros":  {0, math.Copysign(0, -1), 0},
	}
	for name, spec := range map[string]gen.Spec{
		"benign":    {N: 5000, Cond: 1, DynRange: 8, Seed: 21},
		"illcond":   {N: 5000, Cond: 1e8, DynRange: 24, Seed: 22},
		"sumzero":   {N: 5000, Cond: math.Inf(1), DynRange: 32, Seed: 23},
		"widerange": {N: 4097, Cond: 1e4, DynRange: 40, Seed: 24},
	} {
		cases[name] = spec.Generate()
	}
	sub := make([]float64, 999)
	for i := range sub {
		sub[i] = math.Ldexp(float64(i%5+1), -1070-i%4)
	}
	cases["subnormal"] = sub
	poisoned := gen.Spec{N: 1000, Cond: 1, DynRange: 4, Seed: 25}.Generate()
	poisoned[500] = math.Inf(-1)
	cases["poisoned"] = poisoned
	nan := gen.Spec{N: 1000, Cond: 1, DynRange: 4, Seed: 26}.Generate()
	nan[7] = math.NaN()
	cases["nan"] = nan
	mixed := gen.Spec{N: 1000, Cond: 1e4, DynRange: 16, Seed: 27}.Generate()
	mixed[100], mixed[600] = 0x1p-1074, -0x1p-1060
	mixed[300], mixed[900] = math.Inf(1), math.Inf(-1)
	cases["mixed-denormal-inf"] = mixed
	return cases
}

// addFold is the scalar definition of a profile: Profile.Add folded
// over xs in order. The fused kernel and ProfileOf are both pinned
// bit-identical to it.
func addFold(xs []float64) Profile {
	var p Profile
	for _, x := range xs {
		p = p.Add(x)
	}
	return p
}

// TestFusedPassMatchesProfileOf pins the fused pass's profile and
// ProfileOf bit-identical (struct equality, compensated pairs included)
// to the scalar Profile.Add fold — empty, zero-signed, denormal and
// non-finite inputs included — and the fused speculative ST sum to the
// serial operator.
func TestFusedPassMatchesProfileOf(t *testing.T) {
	for name, xs := range fusedCases() {
		fp := FusedProfileSum(xs)
		want := addFold(xs)
		if fp.Profile != want {
			t.Errorf("%s: fused profile %+v != Add fold %+v", name, fp.Profile, want)
		}
		if p := ProfileOf(xs); p != want {
			t.Errorf("%s: ProfileOf %+v != Add fold %+v", name, p, want)
		}
		if fbits(fp.ST) != fbits(sum.Standard(xs)) {
			t.Errorf("%s: fused ST != sum.Standard", name)
		}
	}
}

// TestFusedSpecSum pins the speculation protocol: ST always served,
// Neumaier served bit-identical to sum.Neumaier on clean data and
// refused on poisoned or overflowed accumulations, everything else
// escalated.
func TestFusedSpecSum(t *testing.T) {
	for name, xs := range fusedCases() {
		fp := FusedProfileSum(xs)
		v, ok := fp.SpecSum(sum.StandardAlg)
		if !ok || fbits(v) != fbits(sum.Standard(xs)) {
			t.Errorf("%s: ST speculation wrong (ok=%v)", name, ok)
		}
		v, ok = fp.SpecSum(sum.NeumaierAlg)
		if fp.Profile.NonFinite {
			if ok {
				t.Errorf("%s: Neumaier speculation served on poisoned data", name)
			}
		} else if !ok || fbits(v) != fbits(sum.Neumaier(xs)) {
			t.Errorf("%s: Neumaier speculation wrong (ok=%v, %x vs %x)",
				name, ok, fbits(v), fbits(sum.Neumaier(xs)))
		}
		for _, alg := range []sum.Algorithm{sum.PairwiseAlg, sum.KahanAlg,
			sum.CompositeAlg, sum.PreroundedAlg} {
			if _, ok := fp.SpecSum(alg); ok {
				t.Errorf("%s: speculation claimed to hold %v", name, alg)
			}
		}
	}
	// Intermediate overflow: the pair goes non-finite while no input is,
	// and speculation must refuse rather than return bits that can
	// diverge from the branched recurrence.
	over := []float64{1e308, 1e308, -1e308}
	fp := FusedProfileSum(over)
	if fp.Profile.NonFinite {
		t.Fatal("overflowed accumulator must not set the input poison flag")
	}
	if _, ok := fp.SpecSum(sum.NeumaierAlg); ok {
		t.Error("Neumaier speculation served past an intermediate overflow")
	}
}

// TestSelectorSumFusedEquivalence pins the serving call on the two
// inputs where a naive profile-then-sum route diverges from it. A
// poisoned input whose infinities cancel to NaN is reported as the ST
// non-finite fallback (not a reproducible rung chosen from a +Inf
// condition number). A PR pick at a loose tolerance runs the
// TunePR-sized configuration, not the default one.
func TestSelectorSumFusedEquivalence(t *testing.T) {
	xs := []float64{1, math.Inf(1), math.Inf(-1), 2}
	got, sel := New(1e-6).SelectAndSum(xs)
	if sel.Alg != sum.StandardAlg || sel.Route != RouteNonFinite || !math.IsNaN(got) {
		t.Errorf("poisoned: %v route=%v sum %g", sel.Alg, sel.Route, got)
	}

	xs = gen.Spec{N: 5000, Cond: 1e4, DynRange: 24, Seed: 28}.Generate()
	s := New(1e-3)
	s.Policy = Static{Alg: sum.PreroundedAlg}
	got, sel = s.SelectAndSum(xs)
	tuned := TunePR(addFold(xs), s.Req)
	if tuned == sum.DefaultPRConfig() {
		t.Fatal("fixture no longer tunes PR away from its default")
	}
	if sel.PR == nil || *sel.PR != tuned {
		t.Errorf("PR config %+v, want %+v", sel.PR, tuned)
	}
	if want := sum.PreroundedWith(tuned, xs); fbits(got) != fbits(want) {
		t.Errorf("PR pick %x, want tuned %x", fbits(got), fbits(want))
	}
}

// TestSelectorSumStaticAlgorithms forces every algorithm through the
// serving call with a Static policy and pins the result against the
// algorithm's own serial operator — fast paths and escalations alike.
// PR runs its tolerance-tuned configuration; poisoned inputs take the
// ST fallback whatever the policy.
func TestSelectorSumStaticAlgorithms(t *testing.T) {
	for name, xs := range fusedCases() {
		prof := addFold(xs)
		for _, alg := range sum.Algorithms {
			s := New(0)
			s.Policy = Static{Alg: alg}
			got, sel := s.SelectAndSum(xs)
			var want float64
			switch {
			case prof.NonFinite:
				if sel.Alg != sum.StandardAlg {
					t.Fatalf("%s: poisoned input served by %v", name, sel.Alg)
				}
				want = sum.Standard(xs)
			case sel.Alg != alg:
				t.Fatalf("%s: Static policy ignored: %v", name, sel.Alg)
			case alg == sum.PreroundedAlg:
				want = sum.PreroundedWith(TunePR(prof, s.Req), xs)
			default:
				want = alg.Sum(xs)
			}
			if fbits(got) != fbits(want) {
				t.Errorf("%s %v: fused %x != serial %x", name, alg, fbits(got), fbits(want))
			}
		}
	}
}

// TestSelectAndSumEquivalence pins the serving call against a two-pass
// route built on the scalar profile fold: poisoned inputs fall back to
// sum.Standard, PR selections run the TunePR configuration, everything
// else alg.Sum. The exact route (tolerance 0) reports no profile; its
// pick and bits must still be the two-pass route's.
func TestSelectAndSumEquivalence(t *testing.T) {
	for name, xs := range fusedCases() {
		for _, tol := range []float64{1e-6, 1e-9, 1e-12, 1e-15, 0} {
			s := New(tol)
			got, sel := s.SelectAndSum(xs)
			prof := addFold(xs)
			if sel.Route == RouteExact {
				if tol != 0 || sel.Profile != (Profile{}) {
					t.Errorf("%s tol=%g: exact route with profile %v", name, tol, sel.Profile)
				}
			} else if sel.Profile != prof {
				t.Errorf("%s tol=%g: selection profile diverges", name, tol)
			}
			var want float64
			switch {
			case prof.NonFinite:
				want = sum.Standard(xs)
				if sel.Route != RouteNonFinite || sel.Alg != sum.StandardAlg {
					t.Errorf("%s tol=%g: poisoned selection %+v", name, tol, sel)
				}
			default:
				alg, _ := s.Policy.Select(prof, s.Req)
				if alg != sel.Alg {
					t.Errorf("%s tol=%g: chose %v, two-pass %v", name, tol, sel.Alg, alg)
					continue
				}
				if alg == sum.PreroundedAlg {
					cfg := TunePR(prof, s.Req)
					if sel.PR == nil || *sel.PR != cfg {
						t.Errorf("%s tol=%g: PR config %+v, want %+v", name, tol, sel.PR, cfg)
					}
					want = sum.PreroundedWith(cfg, xs)
				} else {
					want = alg.Sum(xs)
				}
				fast := alg == sum.StandardAlg || alg == sum.NeumaierAlg
				if fast != (sel.Route == RouteFast) && sel.Route != RouteExact {
					t.Errorf("%s tol=%g (%v): route %v", name, tol, alg, sel.Route)
				}
			}
			if fbits(got) != fbits(want) {
				t.Errorf("%s tol=%g (%v): %x != %x", name, tol, sel.Alg, fbits(got), fbits(want))
			}
		}
	}
}

// TestSelectAndSumParallelEquivalence pins the engine variant against
// the two-pass parallel route at several worker counts and lane
// widths: same profile bits, same selection, same sum bits. Worker
// count must not change any of it.
func TestSelectAndSumParallelEquivalence(t *testing.T) {
	for name, xs := range fusedCases() {
		for _, workers := range []int{1, 2, 4, 7} {
			for _, lanes := range []int{1, 2, 4, 8} {
				cfg := parallel.Config{Workers: workers, ChunkSize: 1 << 9, LaneWidth: lanes}
				for _, tol := range []float64{1e-6, 1e-12, 0} {
					s := New(tol)
					got, sel := s.SelectAndSumParallel(xs, cfg)
					prof := ProfileOfParallel(xs, cfg)
					if sel.Route == RouteExact {
						if tol != 0 || sel.Profile != (Profile{}) {
							t.Errorf("%s w=%d l=%d tol=%g: exact route with profile %v",
								name, workers, lanes, tol, sel.Profile)
						}
					} else if sel.Profile != prof {
						t.Errorf("%s w=%d l=%d tol=%g: profile diverges from ProfileOfParallel",
							name, workers, lanes, tol)
					}
					var want float64
					switch {
					case prof.NonFinite:
						want = sum.Standard(xs) // the serial ST pass
					default:
						alg, _ := s.Policy.Select(prof, s.Req)
						if alg != sel.Alg {
							t.Errorf("%s w=%d l=%d tol=%g: chose %v, two-pass %v",
								name, workers, lanes, tol, sel.Alg, alg)
							continue
						}
						if alg == sum.PreroundedAlg {
							want = parallel.SumPR(TunePR(prof, s.Req), xs, cfg)
						} else {
							want = parallel.Sum(alg, xs, cfg)
						}
					}
					if fbits(got) != fbits(want) {
						t.Errorf("%s w=%d l=%d tol=%g (%v): %x != %x",
							name, workers, lanes, tol, sel.Alg, fbits(got), fbits(want))
					}
				}
				// Forced Neumaier exercises the compensated-pair fast path on
				// the engine (and the lane-plan second pass above width 1).
				s := New(0)
				s.Policy = Static{Alg: sum.NeumaierAlg}
				got, sel := s.SelectAndSumParallel(xs, cfg)
				if !sel.Profile.NonFinite {
					if want := parallel.Sum(sum.NeumaierAlg, xs, cfg); fbits(got) != fbits(want) {
						t.Errorf("%s w=%d l=%d: engine Neumaier %x != parallel.Sum %x",
							name, workers, lanes, fbits(got), fbits(want))
					}
				}
			}
		}
	}
}

// TestSelectAndSumParallelLaneFallback: lane plans are not fused. At
// lane widths above 1 an ST pick must come from the lane-plan second
// pass, not the single-lane speculative shadow.
func TestSelectAndSumParallelLaneFallback(t *testing.T) {
	xs := gen.Spec{N: 4096, Cond: 1, DynRange: 4, Seed: 31}.Generate()
	s := New(1e-9)
	for _, lanes := range []int{2, 4, 8} {
		cfg := parallel.Config{ChunkSize: 1 << 9, LaneWidth: lanes}
		got, sel := s.SelectAndSumParallel(xs, cfg)
		if sel.Alg != sum.StandardAlg || sel.Route != RouteSecondPass {
			t.Errorf("lanes=%d: alg %v route=%v, want a second-pass ST", lanes, sel.Alg, sel.Route)
		}
		if want := parallel.Sum(sum.StandardAlg, xs, cfg); fbits(got) != fbits(want) {
			t.Errorf("lanes=%d: %x != lane-plan ST %x", lanes, fbits(got), fbits(want))
		}
	}
}

// TestFusedFastPathAllocs pins the speculative serving calls as
// allocation-free on the ST and Neumaier fast paths — the acceptance
// bar for the steady-state serving loop.
func TestFusedFastPathAllocs(t *testing.T) {
	xs := gen.Spec{N: 4096, Cond: 1, DynRange: 4, Seed: 32}.Generate()
	var sink float64
	st := New(1e-9) // analytic policy picks ST for this data
	if a := st.Decide(ProfileOf(xs)).Alg; a != sum.StandardAlg {
		t.Fatal("fixture no longer selects ST")
	}
	if n := testing.AllocsPerRun(100, func() {
		sink, _ = st.SelectAndSum(xs)
	}); n != 0 {
		t.Errorf("ST fast path allocates %v per run", n)
	}
	nm := New(0)
	nm.Policy = Static{Alg: sum.NeumaierAlg}
	if n := testing.AllocsPerRun(100, func() {
		sink, _ = nm.SelectAndSum(xs)
	}); n != 0 {
		t.Errorf("Neumaier fast path allocates %v per run", n)
	}
	_ = sink
}
