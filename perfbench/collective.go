package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/mpirt"
	"repro/internal/reduce"
	"repro/internal/selector"
	"repro/internal/sum"
)

// collSet is one distributed input: a generated set split across the
// ranks, with its exact sum and the error bounds of its global profile.
type collSet struct {
	parts  [][]float64
	exact  float64
	bounds selector.Bounds
}

type collBench struct {
	r     *runner
	sets  []collSet
	tols  []float64
	sels  []*selector.Selector
	w     *mpirt.World
	topo  mpirt.Topology
	elems float64 // elements per call
}

func runCollective(r *runner) error {
	c := &collBench{r: r, tols: []float64{0, 1e-12}, sels: make([]*selector.Selector, 2)}
	rng := newRand(r.seed, 3)
	drs := dynRanges(rng, r.p.collSets)
	for i := 0; i < r.p.collSets; i++ {
		all := gen.Spec{N: r.p.ranks * r.p.perRank, Cond: classes[i%len(classes)],
			DynRange: drs[i], Seed: rng.Uint64()}.Generate()
		s := collSet{exact: repro.ExactSum(all), bounds: selector.ComputeBounds(selector.ProfileOf(all), 0)}
		for k := 0; k < r.p.ranks; k++ {
			s.parts = append(s.parts, all[k*r.p.perRank:(k+1)*r.p.perRank])
		}
		c.sets = append(c.sets, s)
	}
	c.elems = float64(r.p.ranks * r.p.perRank)
	settle()
	heap := startHeapSampler()
	r.setup(func(i int) (bool, string) {
		c.w = mpirt.NewWorld(r.p.ranks, mpirt.Config{})
		// One float64 result per rank: the scalar message size.
		c.topo = mpirt.SelectTopology(8, r.p.ranks)
		for t, tol := range c.tols {
			c.sels[t] = selector.New(tol)
		}
		s := &c.sets[i%len(c.sets)]
		v, alg, err := c.call(s, 0)
		if err != nil {
			return false, err.Error()
		}
		return c.correct(s, 0, v, alg), fmt.Sprintf("%s result %g, exact %g", alg, v, s.exact)
	}, nil)
	var err error
	if r.trace {
		err = c.traced()
	} else {
		err = c.untraced()
	}
	heap.finish(r)
	return err
}

// call runs one selector.AdaptiveReduce collective on set s at
// tolerance index t and returns the root's result.
func (c *collBench) call(s *collSet, t int) (float64, sum.Algorithm, error) {
	var res float64
	var alg sum.Algorithm
	var ok bool
	err := c.w.Run(func(rk *mpirt.Rank) {
		v, a, root := selector.AdaptiveReduce(rk, 0, s.parts[rk.ID], c.sels[t], c.topo, mpirt.ArrivalOrder)
		if root {
			res, alg, ok = v, a, true
		}
	})
	if err == nil && !ok {
		err = errors.New("collective returned no result at the root")
	}
	return res, alg, err
}

// correct applies the oracle: BN picks and tolerance-0 requests must
// equal the exact sum's bits, other picks must land within their
// deterministic error bound.
func (c *collBench) correct(s *collSet, t int, v float64, alg sum.Algorithm) bool {
	if alg == sum.BinnedAlg || c.tols[t] == 0 {
		return math.Float64bits(v) == math.Float64bits(s.exact)
	}
	return math.Abs(v-s.exact) <= s.bounds.For(alg).Det
}

// schedule: one pass visits every set at tolerance 0, then every set at
// 1e-12, so both tolerances meet every data class.
func (c *collBench) pass(fn func(s *collSet, t int)) {
	for t := range c.tols {
		for i := range c.sets {
			fn(&c.sets[i], t)
		}
	}
}

// floor times the plain ST kernel over set s, rank part by rank part.
func (c *collBench) floor(s *collSet) float64 {
	t0 := time.Now()
	for _, p := range s.parts {
		stSink += kernel.ST(p)
	}
	return float64(time.Since(t0))
}

func (c *collBench) untraced() error {
	r := c.r
	lat := make([]float64, 0, 4*r.p.minSamples)
	var ps passes
	var elems, ns, floor []float64
	var sets []*collSet
	start := time.Now()
	var runErr error
	for (len(ps.melems) < minPasses || !r.done(start, len(lat))) && runErr == nil {
		elems, ns, floor, sets = elems[:0], ns[:0], floor[:0], sets[:0]
		c.pass(func(s *collSet, t int) {
			if runErr != nil {
				return
			}
			t0 := time.Now()
			v, alg, err := c.call(s, t)
			d := float64(time.Since(t0))
			if err != nil {
				runErr = err
				return
			}
			elems, ns, sets = append(elems, c.elems), append(ns, d), append(sets, s)
			v = r.faults.flip(v, alg == sum.BinnedAlg)
			if !r.ok(c.correct(s, t, v, alg)) {
				r.note("collective tol=%g %s: got %x want %x (det %g)",
					c.tols[t], alg, math.Float64bits(v), math.Float64bits(s.exact), s.bounds.For(alg).Det)
			}
		})
		if runErr == nil {
			// The floor runs after the pass, as for the sum workloads,
			// so that it finds each set no warmer than the call did.
			for _, s := range sets {
				floor = append(floor, c.floor(s))
			}
			lat = append(lat, ns...)
			ps.addCalls(elems, ns, floor)
		}
	}
	if runErr != nil {
		return runErr
	}
	return r.throughput(ps, lat)
}

// countOp wraps the operator handed to Reduce and counts its merges.
type countOp struct {
	reduce.Op
	merges, ns *atomic.Int64
}

func (o countOp) Merge(a, b reduce.State) reduce.State {
	t0 := time.Now()
	s := o.Op.Merge(a, b)
	o.ns.Add(int64(time.Since(t0)))
	o.merges.Add(1)
	return s
}

// collTrace accumulates the traced replay's observations.
type collTrace struct {
	tr                []*tracer // one per rank
	main              *tracer
	merges, mergeNs   atomic.Int64
	start, end, body  []int64 // per rank, last call
	rootReduceNs      float64
	skew, worldSelfNs float64
	calls             int
}

// replay re-executes selector.AdaptiveReduce's steps on every rank with
// spans around each: local profile, profile AllReduce, decide, local
// state, global Reduce (through a merge-counting operator).
func (c *collBench) replay(ct *collTrace, s *collSet, t int, req uint64) (float64, sum.Algorithm, error) {
	var res float64
	var alg sum.Algorithm
	var ok bool
	var rootReduce int64
	world := ct.main.start(req, 0, spWorldRun)
	err := c.w.Run(func(rk *mpirt.Rank) {
		tr := ct.tr[rk.ID]
		local := s.parts[rk.ID]
		body := tr.start(req, world.id, spRank)
		o := tr.start(req, body.id, spProfileLocal)
		lp := selector.ProfileOf(local)
		tr.stop(o)
		o = tr.start(req, body.id, spAllReduce)
		st := rk.AllReduce(lp, selector.ProfileOp{}, c.topo, mpirt.FixedOrder)
		tr.stop(o)
		global := selector.ProfileOp{}.Profile(st)
		o = tr.start(req, body.id, spDecide)
		a := c.sels[t].Decide(global).Alg
		tr.stop(o)
		op := countOp{Op: a.Op(), merges: &ct.merges, ns: &ct.mergeNs}
		o = tr.start(req, body.id, spLocalState)
		ls := a.LocalState(local)
		tr.stop(o)
		o = tr.start(req, body.id, spReduce)
		reduced := rk.Reduce(0, ls, op, c.topo, mpirt.ArrivalOrder)
		d := tr.stop(o)
		if reduced != nil {
			res, alg, ok, rootReduce = op.Finalize(reduced), a, true, d
		}
		ct.body[rk.ID] = tr.stop(body)
		ct.start[rk.ID], ct.end[rk.ID] = body.start, body.start+ct.body[rk.ID]
	})
	runNs := ct.main.stop(world)
	if err == nil && !ok {
		err = errors.New("replayed collective returned no result at the root")
	}
	if err != nil {
		return 0, 0, err
	}
	first, last := ct.start[0], ct.end[0]
	for k := range ct.start {
		first = min(first, ct.start[k])
		last = max(last, ct.end[k])
	}
	// Rank bodies start when Run has launched them; the rest of Run's
	// wall time is the world's own (spawn and join) time.
	ct.worldSelfNs += float64(runNs - (last - first))
	b := make([]float64, len(ct.body))
	for k, v := range ct.body {
		b[k] = float64(v)
	}
	sort.Float64s(b)
	ct.skew += b[len(b)-1] / median(b)
	ct.rootReduceNs += float64(rootReduce)
	ct.calls++
	return res, alg, nil
}

// traced alternates untraced calls (time and result bits), their traced
// replays (which must reproduce the bits: exactly for a reproducible
// pick, and with the same pick otherwise, since ArrivalOrder makes
// non-reproducible operators order-dependent) and the ST floor.
func (c *collBench) traced() error {
	r := c.r
	base := time.Now()
	ct := &collTrace{main: newTracer(base, 0, 1<<12)}
	for k := 0; k < r.p.ranks; k++ {
		ct.tr = append(ct.tr, newTracer(base, uint64(k+1), 1<<10))
	}
	ct.start = make([]int64, r.p.ranks)
	ct.end = make([]int64, r.p.ranks)
	ct.body = make([]int64, r.p.ranks)
	var untracedNs, tracedNs float64
	var ulat []float64 // untraced request latencies
	var req uint64
	var runErr error
	n := 0
	start := time.Now()
	for !r.done(start, n) && runErr == nil {
		c.pass(func(s *collSet, t int) {
			if runErr != nil {
				return
			}
			req++
			var v, rv float64
			var alg, ralg sum.Algorithm
			untraced := func() (err error) {
				t0 := time.Now()
				v, alg, err = c.call(s, t)
				d := float64(time.Since(t0))
				untracedNs += d
				ulat = append(ulat, d)
				return err
			}
			replay := func() (err error) {
				t0 := time.Now()
				rv, ralg, err = c.replay(ct, s, t, req)
				tracedNs += float64(time.Since(t0))
				return err
			}
			// Alternate which runs first, so neither always finds the
			// other's data in cache.
			first, second := untraced, replay
			if n%2 == 1 {
				first, second = replay, untraced
			}
			if runErr = first(); runErr != nil {
				return
			}
			if runErr = second(); runErr != nil {
				return
			}
			r.check(c.correct(s, t, v, alg), "collective tol=%g %s: got %x want %x",
				c.tols[t], alg, math.Float64bits(v), math.Float64bits(s.exact))
			same := math.Float64bits(rv) == math.Float64bits(v)
			if !ralg.Reproducible() {
				same = c.correct(s, t, rv, ralg)
			}
			r.check(ralg == alg && same, "collective replay tol=%g: %s %x, untraced %s %x",
				c.tols[t], ralg, math.Float64bits(rv), alg, math.Float64bits(v))
			n++
		})
		c.pass(func(s *collSet, _ int) {
			req++
			o := ct.main.start(req, 0, spKernelST)
			c.floor(s)
			ct.main.stop(o)
		})
	}
	if runErr != nil {
		return runErr
	}
	all := newTracer(base, 0, 0)
	all.add(ct.main)
	r.keep(ct.main)
	for _, t := range ct.tr {
		all.add(t)
		r.keep(t)
	}
	calls := float64(ct.calls)
	rankCalls := calls * float64(r.p.ranks)
	elems := calls * c.elems
	model := mpirt.DefaultMachine().CollectiveTime(c.topo, r.p.ranks, 1, mpirt.DefaultSegSize, nil)
	L := r.layer
	L.set("selector.profile_local.ns_per_elem", "ns/elem", all.ns(spProfileLocal)/elems)
	L.set("sum.local_state.ns_per_elem", "ns/elem", all.ns(spLocalState)/elems)
	L.set("selector.decide.ns", "ns", all.ns(spDecide)/rankCalls)
	L.set("kernel.st.ns_per_elem", "ns/elem", all.ns(spKernelST)/(float64(all.count[spKernelST])*c.elems))
	L.set("mpirt.profile_allreduce.us", "us", all.ns(spAllReduce)/rankCalls/1e3)
	L.set("mpirt.reduce.us", "us", all.ns(spReduce)/rankCalls/1e3)
	L.set("mpirt.reduce.merges", "count", float64(ct.merges.Load())/calls)
	L.set("mpirt.reduce.merge_ns", "ns", float64(ct.mergeNs.Load())/float64(ct.merges.Load()))
	L.set("mpirt.rank_skew", "x", ct.skew/calls)
	L.set("mpirt.world_run.self_us", "us", ct.worldSelfNs/calls/1e3)
	L.set("mpirt.model_cost", "model", model)
	L.set("mpirt.model_vs_measured", "us/model", ct.rootReduceNs/calls/1e3/model)
	L.set("trace.overhead_ratio", "x", tracedNs/untracedNs)
	r.samples["mpirt.calls"] = ct.calls
	return r.latency(L, ulat, requestP99)
}
