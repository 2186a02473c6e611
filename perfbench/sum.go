package main

import (
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/selector"
	"repro/internal/sum"
)

// classes are the fig12 condition-number classes every workload draws
// its data from; the dynamic range of each generated set comes from
// dynRanges.
var classes = []float64{1, 1e4, 1e10, math.Inf(1)}

// sumInput is one generated array with its exact, correctly rounded sum.
type sumInput struct {
	xs    []float64
	exact float64
}

// makePool generates count arrays of n elements, cycling through the
// data classes.
func makePool(seed uint64, count, n int) []sumInput {
	rng := newRand(seed, 1)
	pool := make([]sumInput, count)
	drs := dynRanges(rng, count)
	for i := range pool {
		xs := gen.Spec{N: n, Cond: classes[i%len(classes)], DynRange: drs[i], Seed: rng.Uint64()}.Generate()
		pool[i] = sumInput{xs: xs, exact: repro.ExactSum(xs)}
	}
	return pool
}

// sumCall is one Runtime.Sum request: the input slice, its exact sum and
// the index of the runtime (tolerance) serving it.
type sumCall struct {
	xs    []float64
	exact float64
	rt    int
}

// sumBench runs a cyclic schedule of calls against a set of runtimes.
type sumBench struct {
	r     *runner
	tols  []float64
	rts   []*repro.Runtime
	calls []sumCall
	// setupCalls are the first requests the set-ups serve, one per
	// set-up in turn; their sizes do not depend on the seed.
	setupCalls []sumCall
}

func runSumExact(r *runner) error {
	pool := makePool(r.seed, r.p.poolArrays, r.p.arrayLen)
	b := &sumBench{r: r, tols: []float64{0}, rts: make([]*repro.Runtime, 1)}
	for _, in := range pool {
		b.calls = append(b.calls, sumCall{xs: in.xs, exact: in.exact})
	}
	b.setupCalls = b.calls
	return b.run()
}

func runSumAdaptive(r *runner) error {
	pool := makePool(r.seed, r.p.adaptPool, r.p.arrayLen)
	b := &sumBench{r: r, tols: []float64{1e-12, 1e-8, 1e-4}, rts: make([]*repro.Runtime, 3)}
	// Each set-up's first request is a 2^16-element prefix at 1e-4, which
	// always takes the speculative ST route: its cost then depends on
	// neither the data class nor the dynamic range the seed drew.
	for _, in := range pool {
		xs := in.xs[:min(len(in.xs), 1<<16)]
		b.setupCalls = append(b.setupCalls, sumCall{xs: xs, exact: repro.ExactSum(xs), rt: len(b.tols) - 1})
	}
	rng := newRand(r.seed, 2)
	span := float64(r.p.maxLog - r.p.minLog)
	// Stratified draws: call i's size comes from the i-th of schedCalls
	// equal slices of the log2 range and its tolerance is i mod 3, then
	// the order is shuffled. Every seed gets the same size and tolerance
	// mix; only the data, offsets and order change.
	for i := 0; i < r.p.schedCalls; i++ {
		src := pool[rng.IntN(len(pool))].xs
		u := (float64(i) + rng.Float64()) / float64(r.p.schedCalls)
		n := int(math.Round(math.Exp2(float64(r.p.minLog) + span*u)))
		off := rng.IntN(len(src) - n + 1)
		xs := src[off : off+n]
		b.calls = append(b.calls, sumCall{xs: xs, exact: repro.ExactSum(xs), rt: i % len(b.tols)})
	}
	rng.Shuffle(len(b.calls), func(i, j int) { b.calls[i], b.calls[j] = b.calls[j], b.calls[i] })
	return b.run()
}

// correct applies the correctness oracle to one result: a BN pick or a
// tolerance-0 request must equal the exact sum bit for bit; any other
// pick must land within its deterministic error bound of the exact sum.
func (b *sumBench) correct(c sumCall, v float64, rep repro.Report) bool {
	if rep.Algorithm == sum.BinnedAlg || b.tols[c.rt] == 0 {
		return math.Float64bits(v) == math.Float64bits(c.exact)
	}
	return math.Abs(v-c.exact) <= rep.Bounds.For(rep.Algorithm).Det
}

// checkSum counts one result, failed if it is not correct.
func (b *sumBench) checkSum(c sumCall, v float64, rep repro.Report) {
	v = b.r.faults.flip(v, rep.Algorithm == sum.BinnedAlg)
	if !b.r.ok(b.correct(c, v, rep)) {
		b.r.note("n=%d tol=%g %s: got %g (%x), exact %g (%x), det bound %g", len(c.xs), b.tols[c.rt],
			rep.Algorithm, v, math.Float64bits(v), c.exact, math.Float64bits(c.exact),
			rep.Bounds.For(rep.Algorithm).Det)
	}
}

func (b *sumBench) run() error {
	r := b.r
	settle()
	heap := startHeapSampler()
	r.setup(func(i int) (bool, string) {
		for t, tol := range b.tols {
			b.rts[t] = repro.New(tol)
		}
		c := b.setupCalls[i%len(b.setupCalls)]
		v, rep := b.rts[c.rt].Sum(c.xs)
		return b.correct(c, v, rep), fmt.Sprintf("%s sum %g, exact %g", rep.Algorithm, v, c.exact)
	}, nil)
	var err error
	if r.trace {
		err = b.traced()
	} else {
		err = b.untraced()
	}
	heap.finish(r)
	return err
}

// untraced times every call and, in alternating passes over the same
// schedule, the plain ST kernel on each call's inputs (the floor).
func (b *sumBench) untraced() error {
	r := b.r
	lat := make([]float64, 0, 4*r.p.minSamples)
	var ps passes
	n := len(b.calls)
	elems, ns, floor := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, c := range b.calls {
		elems[i] = float64(len(c.xs))
	}
	start := time.Now()
	for len(ps.melems) < minPasses || !r.done(start, len(lat)) {
		for i, c := range b.calls {
			t0 := time.Now()
			v, rep := b.rts[c.rt].Sum(c.xs)
			ns[i] = float64(time.Since(t0))
			b.checkSum(c, v, rep)
		}
		for i, c := range b.calls {
			t0 := time.Now()
			stSink += kernel.ST(c.xs)
			floor[i] = float64(time.Since(t0))
		}
		lat = append(lat, ns...)
		ps.addCalls(elems, ns, floor)
	}
	return r.throughput(ps, lat)
}

// sumTrace accumulates what the traced replay of Runtime.Sum observed.
type sumTrace struct {
	calls, fast, second, bnCalls int
	elems, bnElems, passElems    float64
	picks                        [8]int
}

// replay re-executes core.Runtime.Sum's serial path (selector.SelectAndSum)
// call by call with a span around each layer and returns the result.
func (b *sumBench) replay(tr *tracer, st *sumTrace, req uint64, c sumCall) float64 {
	sel := b.rts[c.rt].Selector()
	root := tr.start(req, 0, spCore)
	o := tr.start(req, root.id, spProfile)
	fp := selector.FusedProfileSum(c.xs)
	tr.stop(o)
	st.calls++
	st.elems += float64(len(c.xs))
	st.passElems += float64(len(c.xs))
	if fp.Profile.NonFinite {
		st.fast++
		st.picks[sum.StandardAlg]++
		tr.stop(root)
		return fp.ST
	}
	o = tr.start(req, root.id, spDecide)
	d := sel.Decide(fp.Profile)
	tr.stop(o)
	st.picks[d.Alg]++
	if v, ok := fp.SpecSum(d.Alg); ok {
		st.fast++
		tr.stop(root)
		return v
	}
	st.second++
	st.passElems += float64(len(c.xs))
	var v float64
	switch d.Alg {
	case sum.BinnedAlg:
		st.bnCalls++
		st.bnElems += float64(len(c.xs))
		o = tr.start(req, root.id, spKernelBN)
		acc := kernel.Binned(c.xs)
		tr.stop(o)
		o = tr.start(req, root.id, spFinalize)
		v = acc.Finalize()
		tr.stop(o)
	case sum.PreroundedAlg:
		o = tr.start(req, root.id, spSecondPass)
		v = sum.PreroundedWith(d.PR, c.xs)
		tr.stop(o)
	default:
		o = tr.start(req, root.id, spSecondPass)
		v = d.Alg.Sum(c.xs)
		tr.stop(o)
	}
	tr.stop(root)
	return v
}

// traced alternates three passes over the schedule: untraced calls
// (their time, allocations and result bits), the traced replay (which
// must reproduce those bits) and the ST floor under a span.
func (b *sumBench) traced() error {
	r := b.r
	tr := newTracer(time.Now(), 1, 1<<16)
	var st sumTrace
	bits := make([]uint64, len(b.calls))
	rbits := make([]uint64, len(b.calls))
	reps := make([]repro.Report, len(b.calls))
	var untracedNs, tracedNs float64
	var ulat []float64 // untraced request latencies
	var allocs uint64
	var req uint64
	n := 0
	start := time.Now()
	cr := newCounterReader()
	passLat := make([]float64, len(b.calls))
	untracedPass := func() {
		before := cr.read()
		t0 := time.Now()
		for i, c := range b.calls {
			t1 := time.Now()
			var v float64
			v, reps[i] = b.rts[c.rt].Sum(c.xs)
			passLat[i] = float64(time.Since(t1))
			bits[i] = math.Float64bits(v)
		}
		untracedNs += float64(time.Since(t0))
		allocs += cr.read().since(before).allocs
		ulat = append(ulat, passLat...)
	}
	replayPass := func() {
		t0 := time.Now()
		for i, c := range b.calls {
			req++
			rbits[i] = math.Float64bits(b.replay(tr, &st, req, c))
		}
		tracedNs += float64(time.Since(t0))
	}
	for pass := 0; !r.done(start, n); pass++ {
		// Alternate which of the two goes first, so neither always
		// finds the other's data in cache.
		if pass%2 == 0 {
			untracedPass()
			replayPass()
		} else {
			replayPass()
			untracedPass()
		}
		for i, c := range b.calls {
			b.checkSum(c, math.Float64frombits(bits[i]), reps[i])
			if !r.ok(rbits[i] == bits[i]) {
				r.note("replay of call %d (n=%d): bits %x, untraced %x", i, len(c.xs), rbits[i], bits[i])
			}
		}
		for _, c := range b.calls {
			req++
			o := tr.start(req, 0, spKernelST)
			stSink += kernel.ST(c.xs)
			tr.stop(o)
		}
		n += len(b.calls)
	}
	r.keep(tr)
	calls := float64(st.calls)
	L := r.layer
	L.set("selector.profile.ns_per_elem", "ns/elem", tr.ns(spProfile)/st.elems)
	L.set("selector.decide.ns", "ns", tr.ns(spDecide)/calls)
	L.set("kernel.st.ns_per_elem", "ns/elem", tr.ns(spKernelST)/st.elems)
	if st.bnCalls > 0 {
		L.set("kernel.bn.ns_per_elem", "ns/elem", tr.ns(spKernelBN)/st.bnElems)
		L.set("binned.finalize.ns", "ns", tr.ns(spFinalize)/float64(st.bnCalls))
	}
	children := tr.ns(spProfile) + tr.ns(spDecide) + tr.ns(spKernelBN) + tr.ns(spFinalize) + tr.ns(spSecondPass)
	L.set("core.self.ns", "ns", (tr.ns(spCore)-children)/calls)
	L.set("core.calls", "count", calls)
	L.set("core.route.fast_share", "ratio", float64(st.fast)/calls)
	L.set("core.route.second_pass_share", "ratio", float64(st.second)/calls)
	for _, a := range sum.Algorithms {
		L.set("core.pick."+a.String()+"_share", "ratio", float64(st.picks[a])/calls)
	}
	L.set("core.bytes_read_per_elem", "B/elem", 8*st.passElems/st.elems)
	L.set("go.allocs_per_request", "count", float64(allocs)/calls)
	L.set("trace.overhead_ratio", "x", tracedNs/untracedNs)
	r.samples["core.calls"] = st.calls
	return r.latency(L, ulat, requestP99)
}
