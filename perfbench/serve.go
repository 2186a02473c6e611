package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/binned"
	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/superacc"
	"repro/internal/wire"
)

const (
	flushEvery = 16 // a Flush follows every 16th batch
	snapEvery  = 64 // and a Snapshot every 64th
	probeKey   = "setup-probe"
)

// batchDesc is one deposit batch of a client's cyclic schedule: a key
// index (0 is the hot key) and a window of the value pool.
type batchDesc struct {
	key, off, n int
}

type serveBench struct {
	r        *runner
	pool     []float64
	keys     []string
	sched    [][]batchDesc // per client
	snapKeys [][]int       // per client: the key of each successive snapshot

	srv       *repro.AggServer
	serveDone chan error
	clients   []*repro.AggClient
	maxCount  []atomic.Int64 // per key: largest Count a completed snapshot returned
	pos       []int64        // per client: batches sent so far (schedule position)
}

// bucket is the work a client had acked by Flush within one
// params.bucket slice of the window, and where the bucket's round trips
// start in clientOut.flushLat and snapLat.
type bucket struct {
	deposits, batches   int64
	flushFrom, snapFrom int
}

// clientOut is what one closed-loop client did during a window.
type clientOut struct {
	batches, deposits, snapshots int64
	flushLat, snapLat            []float64
	buckets                      []bucket // flushed work per params.bucket of the window
	end                          time.Duration
	badCount                     int64    // snapshot counts that went backwards
	bad                          []string // the first few of them
	err                          error
}

func runServe(r *runner) error {
	b := &serveBench{r: r}
	rng := newRand(r.seed, 4)
	seg := r.p.servePool / len(classes)
	drs := dynRanges(rng, len(classes))
	for i, k := range classes {
		b.pool = append(b.pool, gen.Spec{N: seg, Cond: k, DynRange: drs[i], Seed: rng.Uint64()}.Generate()...)
	}
	b.keys = append(b.keys, "hot")
	for i := 0; i < r.p.tenants; i++ {
		b.keys = append(b.keys, fmt.Sprintf("tenant-%04d", i))
	}
	b.maxCount = make([]atomic.Int64, len(b.keys))
	b.pos = make([]int64, r.p.clients)
	// Stratified draws: every schedule holds exactly 60/35/5 % batches of
	// 1/64/4096 scalars and sends exactly 3/4 of its batches and of its
	// snapshots to the hot key. The seed shuffles them and picks the
	// tenants, offsets and data.
	shuffled := func(xs []int) []int {
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	keys := func(n int) []int {
		ks := make([]int, n)
		for j := range ks {
			if j%4 == 3 {
				ks[j] = 1 + rng.IntN(r.p.tenants)
			}
		}
		return shuffled(ks)
	}
	for c := 0; c < r.p.clients; c++ {
		m := r.p.serveSched
		sizes := make([]int, m)
		for j := range sizes {
			switch f := (float64(j) + 0.5) / float64(m); {
			case f < 0.60:
				sizes[j] = 1
			case f < 0.95:
				sizes[j] = 64
			default:
				sizes[j] = 4096
			}
		}
		sizes = shuffled(sizes)
		ks := keys(m)
		s := make([]batchDesc, m)
		for j := range s {
			s[j] = batchDesc{key: ks[j], off: rng.IntN(len(b.pool) - sizes[j] + 1), n: sizes[j]}
		}
		b.sched = append(b.sched, s)
		b.snapKeys = append(b.snapKeys, keys(m/snapEvery+1))
	}
	settle()
	heap := startHeapSampler()
	r.setup(func(int) (bool, string) { return b.start() }, func() {
		if err := b.stop(); err != nil {
			r.check(false, "%v", err)
		}
	})
	err := b.measure(heap)
	if serr := b.stop(); err == nil {
		err = serr
	}
	return err
}

// start brings up a fresh server on loopback, dials the clients and
// reads back one probe deposit — the first correct result.
func (b *serveBench) start() (bool, string) {
	b.srv = repro.NewAggServer(repro.AggServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv = nil
		return false, err.Error()
	}
	b.serveDone = make(chan error, 1)
	go func() { b.serveDone <- b.srv.Serve(ln) }()
	b.clients = nil
	for i := 0; i < b.r.p.clients; i++ {
		cl, err := repro.DialAggregator(ln.Addr().String())
		if err != nil {
			return false, err.Error()
		}
		b.clients = append(b.clients, cl)
	}
	cl := b.clients[0]
	if err := cl.Deposit(probeKey, []float64{1}); err != nil {
		return false, err.Error()
	}
	if err := cl.Flush(); err != nil {
		return false, err.Error()
	}
	snap, err := cl.Snapshot(probeKey)
	if err != nil {
		return false, err.Error()
	}
	return snap.Value == 1 && snap.Count == 1, fmt.Sprintf("probe snapshot %g count %d", snap.Value, snap.Count)
}

// stop closes the clients and shuts the server down, waiting for its
// accept loop to return.
func (b *serveBench) stop() error {
	if b.srv == nil {
		return nil
	}
	for _, cl := range b.clients {
		cl.Close()
	}
	b.clients = nil
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.serveDone; err == nil {
		err = serr
	}
	b.srv = nil
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}

// client runs one closed loop until the window has passed (and the
// latency samples suffice), then barriers everything it sent with a
// final Flush. tr, when non-nil, gets a span around each call.
func (b *serveBench) client(ci int, start time.Time, out *clientOut, tr *tracer) {
	cl, sched, snapKeys := b.clients[ci], b.sched[ci], b.snapKeys[ci]
	var req uint64
	call := func(name spanName, f func() error) (float64, error) {
		req++
		var o open
		if tr != nil {
			o = tr.start(req, 0, name)
		}
		t0 := time.Now()
		err := f()
		d := float64(time.Since(t0))
		if tr != nil {
			tr.stop(o)
		}
		return d, err
	}
	perClient := b.r.p.minSamples/len(b.clients) + 1
	i := b.pos[ci]
	defer func() { b.pos[ci] = i }()
	var acked bucket // totals at the last flush
	for {
		d := sched[i%int64(len(sched))]
		_, err := call(spClientDeposit, func() error { return cl.Deposit(b.keys[d.key], b.pool[d.off:d.off+d.n]) })
		if err != nil {
			out.err = err
			return
		}
		i++
		out.batches++
		out.deposits += int64(d.n)
		if i%flushEvery != 0 {
			continue
		}
		lat, err := call(spFlush, cl.Flush)
		if err != nil {
			out.err = err
			return
		}
		out.flushLat = append(out.flushLat, lat)
		k := int(time.Since(start) / b.r.p.bucket)
		for len(out.buckets) <= k {
			out.buckets = append(out.buckets, bucket{flushFrom: len(out.flushLat) - 1, snapFrom: len(out.snapLat)})
		}
		out.buckets[k].deposits += out.deposits - acked.deposits
		out.buckets[k].batches += out.batches - acked.batches
		acked = bucket{deposits: out.deposits, batches: out.batches}
		if i%snapEvery == 0 {
			k := snapKeys[int(out.snapshots)%len(snapKeys)]
			floor := b.maxCount[k].Load()
			var snap repro.AggSnapshot
			lat, err := call(spSnapshot, func() (err error) { snap, err = cl.Snapshot(b.keys[k]); return })
			if err != nil {
				out.err = err
				return
			}
			out.snapshots++
			out.snapLat = append(out.snapLat, lat)
			if snap.Count < floor {
				out.badCount++
				if len(out.bad) < 4 {
					out.bad = append(out.bad, fmt.Sprintf("snapshot of %s: count %d after a completed snapshot saw %d",
						b.keys[k], snap.Count, floor))
				}
			}
			for cur := b.maxCount[k].Load(); snap.Count > cur && !b.maxCount[k].CompareAndSwap(cur, snap.Count); cur = b.maxCount[k].Load() {
			}
		}
		// Snapshots are the scarcer round trip; the traced run reports
		// their percentiles on their own. The window must also hold
		// enough buckets for a slowest quartile.
		enough := len(out.snapLat) >= perClient && time.Since(start) > time.Duration(minPasses+1)*b.r.p.bucket
		if enough && b.r.done(start, len(out.snapLat)*len(b.clients)) {
			break
		}
	}
	lat, err := call(spFlush, cl.Flush)
	if err != nil {
		out.err = err
		return
	}
	out.flushLat = append(out.flushLat, lat)
	out.end = time.Since(start)
}

// window runs every client for one measurement window and returns their
// outputs with the window's wall time.
func (b *serveBench) window(tracers []*tracer) ([]clientOut, time.Duration) {
	outs := make([]clientOut, len(b.clients))
	for i := range outs {
		// Room for a 20 s window up front, so that growing these does
		// not show in peak_heap_mb.
		outs[i].flushLat = make([]float64, 0, 1<<19)
		outs[i].snapLat = make([]float64, 0, 1<<17)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range b.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var tr *tracer
			if tracers != nil {
				tr = tracers[ci]
			}
			b.client(ci, start, &outs[ci], tr)
		}(ci)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// measure runs the window and checks it. The heap peak covers the window
// only: the offline oracle verify builds is the benchmark's, not the
// server's.
func (b *serveBench) measure(heap *heapSampler) error {
	r := b.r
	if r.trace {
		defer heap.finish(r)
		return b.traced()
	}
	outs, wall := b.window(nil)
	heap.finish(r)
	tot := b.verify(outs)
	var lat []float64
	for _, o := range outs {
		lat = append(lat, o.flushLat...)
		lat = append(lat, o.snapLat...)
	}
	if tot.deposits == 0 {
		return fmt.Errorf("serve: no deposits acked")
	}
	// Full buckets are those every client ran through; each is a pass.
	full := len(outs[0].buckets)
	for _, o := range outs {
		full = min(full, len(o.buckets)-1, int(o.end/b.r.p.bucket))
	}
	var ps passes
	for k := 0; k < full; k++ {
		var dep, bat float64
		var rtts []float64
		for _, o := range outs {
			bk := o.buckets[k]
			dep += float64(bk.deposits)
			bat += float64(bk.batches)
			// full < len(o.buckets), so bucket k+1 exists.
			next := o.buckets[k+1]
			rtts = append(rtts, o.flushLat[bk.flushFrom:next.flushFrom]...)
			rtts = append(rtts, o.snapLat[bk.snapFrom:next.snapFrom]...)
		}
		sec := b.r.p.bucket.Seconds()
		ps.add(dep/sec/1e6, bat/sec, rtts)
	}
	if err := r.throughput(ps, lat); err != nil {
		return fmt.Errorf("serve window %v: %w", wall, err)
	}
	r.e2e.set("st_floor_ratio", "x", 1e3/r.e2e["melems_per_s"].Value/b.floorPerScalar())
	return nil
}

// verify checks a window's results and returns the totals: every client
// succeeded, snapshot counts never went backwards, every key's final
// snapshot equals the exact sum of what was deposited into it, and the
// server's counters agree with the clients'.
func (b *serveBench) verify(outs []clientOut) clientOut {
	r := b.r
	var tot clientOut
	healthy := true
	for ci, o := range outs {
		// Every deposit, flush and snapshot a client completed is an
		// attempted operation; a client error ends that client's loop.
		r.attempted += o.batches + int64(len(o.flushLat)) + o.snapshots
		r.failed += o.badCount
		r.failures = append(r.failures, o.bad...)
		if o.err != nil {
			r.check(false, "client %d: %v", ci, o.err)
			healthy = false
		}
		tot.batches += o.batches
		tot.deposits += o.deposits
		tot.snapshots += o.snapshots
	}
	if !healthy {
		return tot // the final checks would only repeat the failure
	}
	// Offline exact sums: batch j of client c was sent m times, and
	// x·m splits exactly into hi+lo (an FMA residual), so each distinct
	// value is deposited into the oracle twice, not m times.
	exact := map[int]*superacc.Acc{}
	counts := map[int]int64{}
	for c, sched := range b.sched {
		sent := b.pos[c]
		full, rem := sent/int64(len(sched)), sent%int64(len(sched))
		for j, d := range sched {
			m := full
			if int64(j) < rem {
				m++
			}
			if m == 0 {
				continue
			}
			acc := exact[d.key]
			if acc == nil {
				acc = superacc.New()
				exact[d.key] = acc
			}
			fm := float64(m)
			for _, x := range b.pool[d.off : d.off+d.n] {
				hi := x * fm
				acc.Add(hi)
				acc.Add(math.FMA(x, fm, -hi))
			}
			counts[d.key] += int64(d.n) * m
		}
	}
	keys := make([]int, 0, len(exact))
	for k := range exact {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	cl := b.clients[0]
	for _, k := range keys {
		snap, err := cl.Snapshot(b.keys[k])
		if err != nil {
			r.check(false, "final snapshot of %s: %v", b.keys[k], err)
			return tot
		}
		if r.faults.badSnapshot && !r.faults.badSnapDone {
			r.faults.badSnapDone = true
			snap.Value = math.Float64frombits(math.Float64bits(snap.Value) ^ 1)
		}
		want := exact[k].Float64()
		r.check(math.Float64bits(snap.Value) == math.Float64bits(want) && snap.Count == counts[k],
			"final snapshot of %s: %x count %d, offline exact %x count %d",
			b.keys[k], math.Float64bits(snap.Value), snap.Count, math.Float64bits(want), counts[k])
	}
	st := b.srv.Stats()
	// The set-up probe adds one deposit, batch, snapshot and key.
	r.check(st.Deposits == tot.deposits+1 && st.Batches == tot.batches+1 &&
		st.Snapshots == tot.snapshots+int64(len(keys))+1 && st.Keys == int64(len(keys))+1,
		"server stats %+v disagree with clients: deposits %d batches %d snapshots %d+%d keys %d",
		st, tot.deposits, tot.batches, tot.snapshots, len(keys), len(keys))
	return tot
}

// floorPerScalar is the plain ST kernel's time per scalar over the
// clients' schedules, each summed batch by batch: the median of 16 ms
// passes (eight rounds of the schedules) repeated for a second.
func (b *serveBench) floorPerScalar() float64 {
	const rounds = 8
	var ts []float64
	var scalars float64
	for _, sched := range b.sched {
		for _, d := range sched {
			scalars += rounds * float64(d.n)
		}
	}
	for t0 := time.Now(); len(ts) < minTail || time.Since(t0) < time.Second; {
		p0 := time.Now()
		for range rounds {
			for _, sched := range b.sched {
				for _, d := range sched {
					stSink += kernel.ST(b.pool[d.off : d.off+d.n])
				}
			}
		}
		ts = append(ts, float64(time.Since(p0)))
	}
	return median(ts) / scalars
}

// traced runs an untraced half window and a traced half window (the
// difference is the tracing overhead), then replays each client's
// schedule through the binned and wire calls the server and client make.
func (b *serveBench) traced() error {
	r := b.r
	half := r.window / 2
	full := r.window
	r.window = half
	defer func() { r.window = full }()
	plain, plainWall := b.window(nil)
	base := time.Now()
	tracers := make([]*tracer, len(b.clients))
	for i := range tracers {
		tracers[i] = newTracer(base, uint64(i+1), 1<<14)
	}
	cr := newCounterReader()
	before := cr.read()
	outs, wall := b.window(tracers)
	used := cr.read().since(before)
	b.verify(append(append([]clientOut(nil), plain...), outs...))
	var traced, untraced clientOut
	for i := range outs {
		traced.batches += outs[i].batches
		traced.deposits += outs[i].deposits
		traced.flushLat = append(traced.flushLat, outs[i].flushLat...)
		traced.snapLat = append(traced.snapLat, outs[i].snapLat...)
		untraced.deposits += plain[i].deposits
	}
	cl := newTracer(base, 0, 0)
	for _, t := range tracers {
		cl.add(t)
		r.keep(t)
	}
	rp := b.replay(newTracer(base, uint64(len(tracers)+1), 1<<14))
	L := r.layer
	dep := float64(traced.deposits)
	L.set("aggsrv.client.deposit_ns_per_scalar", "ns/elem", cl.ns(spClientDeposit)/dep)
	if err := r.latency(L, traced.flushLat, pct{"aggsrv.flush.p50_us", 0.5}, pct{"aggsrv.flush.p99_us", 0.99}); err != nil {
		return err
	}
	if err := r.latency(L, traced.snapLat, pct{"aggsrv.snapshot.p50_us", 0.5}, pct{"aggsrv.snapshot.p99_us", 0.99}); err != nil {
		return err
	}
	rt := rp.tr
	L.set("binned.add.ns_per_scalar", "ns/elem", rt.ns(spAdd)/rp.smallScalars)
	L.set("binned.addslice.ns_per_scalar", "ns/elem", rt.ns(spAddSlice)/rp.largeScalars)
	L.set("binned.merge.ns", "ns", rt.ns(spMerge)/float64(rt.count[spMerge]))
	snaps := float64(rt.count[spSnapCopy])
	L.set("binned.snapshot.ns", "ns", rt.ns(spSnapCopy)/snaps)
	L.set("binned.finalize.ns", "ns", rt.ns(spFinalize)/float64(rt.count[spFinalize]))
	L.set("wire.append_binned.ns", "ns", rt.ns(spAppend)/snaps)
	L.set("wire.decode_binned.ns", "ns", rt.ns(spDecode)/snaps)
	replayed := (rt.ns(spSnapCopy) + rt.ns(spFinalize) + rt.ns(spAppend) + rt.ns(spDecode)) / snaps
	L.set("aggsrv.snapshot.transport_us", "us", (cl.ns(spSnapshot)/float64(cl.count[spSnapshot])-replayed)/1e3)
	st := b.srv.Stats()
	L.set("aggsrv.server.deposits", "count", float64(st.Deposits))
	L.set("aggsrv.server.batches", "count", float64(st.Batches))
	L.set("aggsrv.server.snapshots", "count", float64(st.Snapshots))
	L.set("aggsrv.server.keys", "count", float64(st.Keys))
	L.set("go.allocs_per_batch", "count", float64(used.allocs)/float64(traced.batches))
	L.set("go.gc_cycles", "count", float64(used.gcs))
	L.set("proc.cpu_s_per_mdeposit", "s", used.cpu.Seconds()/(dep/1e6))
	L.set("trace.overhead_ratio", "x", (float64(wall)/dep)/(float64(plainWall)/float64(untraced.deposits)))
	r.keep(rt)
	r.check(rp.mismatches == 0, "%d replayed snapshots decoded to different bits", rp.mismatches)
	var ulat []float64
	for _, o := range plain {
		ulat = append(append(ulat, o.flushLat...), o.snapLat...)
	}
	return r.latency(L, ulat, requestP99)
}

// serveReplay is what replaying the server-side calls measured.
type serveReplay struct {
	tr                         *tracer
	smallScalars, largeScalars float64
	mismatches                 int
}

// replay feeds each client's schedule (four passes) through the calls
// the server makes per batch — State.AddSlice for batches under 64,
// a scratch AddSlice plus one Merge at 64 and above — and, at every
// snapshot point, the snapshot path: copy and Snapshot, Finalize,
// wire.AppendBinned on the server; wire.DecodeBinned and the Finalize
// cross-check on the client.
func (b *serveBench) replay(tr *tracer) serveReplay {
	rp := serveReplay{tr: tr}
	states := make([]binned.State, len(b.keys))
	var scratch binned.State
	var buf []byte
	var req uint64
	for pass := 0; pass < 4; pass++ {
		for c, sched := range b.sched {
			for j, d := range sched {
				vals := b.pool[d.off : d.off+d.n]
				req++
				if d.n >= 64 {
					o := tr.start(req, 0, spAddSlice)
					scratch.Reset()
					scratch.AddSlice(vals)
					tr.stop(o)
					o = tr.start(req, 0, spMerge)
					states[d.key].Merge(&scratch)
					tr.stop(o)
					rp.largeScalars += float64(d.n)
				} else {
					o := tr.start(req, 0, spAdd)
					states[d.key].AddSlice(vals)
					tr.stop(o)
					rp.smallScalars += float64(d.n)
				}
				if (j+1)%snapEvery != 0 {
					continue
				}
				k := b.snapKeys[c][((j+1)/snapEvery-1)%len(b.snapKeys[c])]
				req++
				o := tr.start(req, 0, spSnapCopy)
				cp := states[k]
				snap := cp.Snapshot()
				tr.stop(o)
				o = tr.start(req, 0, spFinalize)
				v := cp.Finalize()
				tr.stop(o)
				o = tr.start(req, 0, spAppend)
				buf = wire.AppendBinned(buf[:0], &snap)
				tr.stop(o)
				o = tr.start(req, 0, spDecode)
				got, n, err := wire.DecodeBinned(buf)
				tr.stop(o)
				o = tr.start(req, 0, spFinalize)
				w := got.Finalize()
				tr.stop(o)
				if err != nil || n != len(buf) || math.Float64bits(v) != math.Float64bits(w) {
					rp.mismatches++
				}
			}
		}
	}
	return rp
}
