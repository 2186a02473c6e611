package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// stSink keeps the ST floor's results live.
var stSink float64

// minTail is how many samples must lie beyond a percentile before it is
// reported; a percentile with a thinner tail is refused, never printed
// as 0.
const minTail = 10

// runner holds one run's configuration and what it has measured.
type runner struct {
	p       params
	seed    uint64
	window  time.Duration
	trace   bool
	spanDir string
	faults  faults

	host       hostInfo
	e2e, layer metricSet
	samples    map[string]int

	attempted, failed int64
	failures          []string

	spans []span // traced runs: every raw span kept, written out at the end
}

// faults are deliberate corruptions the tests inject to prove the
// correctness oracle counts them.
type faults struct {
	flipBN      bool // flip the low bit of one BN-picked result
	badSnapshot bool // alter one final snapshot value
	flipBNDone  bool
	badSnapDone bool
}

// flip returns v with its low bit flipped the first time it is asked
// to corrupt a BN result.
func (f *faults) flip(v float64, bn bool) float64 {
	if f.flipBN && bn && !f.flipBNDone {
		f.flipBNDone = true
		return math.Float64frombits(math.Float64bits(v) ^ 1)
	}
	return v
}

var workloads = map[string]func(*runner) error{
	"sum-exact":    runSumExact,
	"sum-adaptive": runSumAdaptive,
	"serve":        runServe,
	"collective":   runCollective,
}

func (r *runner) run(workload string, d decls) (*record, error) {
	fn, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	r.samples = map[string]int{}
	r.e2e, r.layer = metricSet{}, metricSet{}
	r.host = hostMetadata(r.p)
	if err := fn(r); err != nil {
		return nil, err
	}
	if r.trace {
		if err := r.writeSpans(workload); err != nil {
			return nil, err
		}
	}
	return r.finish(workload, d)
}

// ok counts one checked result and reports whether it passed. Hot paths
// call it and build a failure message only when it fails.
func (r *runner) ok(pass bool) bool {
	r.attempted++
	if !pass {
		r.failed++
	}
	return pass
}

// note records a failure message (the first few are kept).
func (r *runner) note(format string, args ...any) {
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one checked result and records a message if it failed.
func (r *runner) check(pass bool, format string, args ...any) {
	if !r.ok(pass) {
		r.note(format, args...)
	}
}

// done reports whether a measurement that started at start and holds n
// latency samples may stop: the window has passed and the samples
// support a p99, or the window has been stretched to its cap. Loops that
// report quartiles over passes also run for minPasses passes.
func (r *runner) done(start time.Time, n int) bool {
	el := time.Since(start)
	if el >= r.window && n >= r.p.minSamples {
		return true
	}
	return el >= time.Duration(r.p.maxStretch)*r.window
}

// setup runs fn (one complete set-up up to its first checked result)
// r.p.setups times and reports the median as setup_s. Each fn call
// reports whether its first result was correct. teardown, if not nil,
// undoes a set-up between two of them, outside the timing; the last
// set-up stays for the measurement.
func (r *runner) setup(fn func(i int) (bool, string), teardown func()) {
	ts := make([]float64, 0, r.p.setups)
	for i := 0; i < r.p.setups; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		ok, msg := fn(i)
		ts = append(ts, time.Since(t0).Seconds())
		r.check(ok, "set-up %d: %s", i, msg)
	}
	r.e2e.set("setup_s", "s", median(ts))
	r.samples["setup_s"] = len(ts)
}

// pct names one percentile of a latency distribution.
type pct struct {
	name string
	q    float64
}

var (
	requestP90 = pct{"request_p90_us", 0.90}
	requestP99 = pct{"request.p99_us", 0.99} // per-layer: too noisy to gate on
)

// latency reports percentiles of ns samples in µs, refusing any
// percentile without minTail samples beyond it.
func (r *runner) latency(set metricSet, ns []float64, pcts ...pct) error {
	s := append([]float64(nil), ns...)
	sort.Float64s(s)
	for _, p := range pcts {
		v, ok := quantile(s, p.q)
		if !ok {
			return fmt.Errorf("%s refused: %d samples leave fewer than %d beyond it", p.name, len(s), minTail)
		}
		set.set(p.name, "us", v/1e3)
		r.samples[p.name] = len(s)
	}
	return nil
}

// passes collects per-pass figures of a run: one pass is a full cycle of
// a workload's schedule (for serve, one time bucket). Other tenants share
// this host's cores, so its speed drifts over seconds by more than a
// bound, and its fast periods vary most. A run therefore reports what 3/4
// of its passes sustained (the slowest quartile): rates, the floor's rate
// and each pass's median latency. Those repeat between runs far better
// than medians over the run.
type passes struct{ melems, reqs, floor, p50 []float64 }

// add records one pass's element and request rates and its request
// latencies.
func (p *passes) add(melems, reqs float64, lat []float64) {
	p.melems = append(p.melems, melems)
	p.reqs = append(p.reqs, reqs)
	p.p50 = append(p.p50, median(append([]float64(nil), lat...)))
}

// addCalls records one pass of calls: call i reduced elems[i] elements
// in ns[i] of request time, and the plain ST kernel took floor[i] on the
// same elements. The rates come from the element-weighted median time
// per element, so that a call the host stalled (a descheduled vCPU) moves
// them no more than any other slow call would.
func (p *passes) addCalls(elems, ns, floor []float64) {
	var total float64
	for _, e := range elems {
		total += e
	}
	rate := 1e3 / perElem(ns, elems)
	p.add(rate, rate*1e6*float64(len(elems))/total, ns)
	p.floor = append(p.floor, 1e3/perElem(floor, elems))
}

// perElem returns the element-weighted median of ts[i]/elems[i].
func perElem(ts, elems []float64) float64 {
	type point struct{ v, w float64 }
	pts := make([]point, len(ts))
	var total float64
	for i := range ts {
		pts[i] = point{ts[i] / elems[i], elems[i]}
		total += elems[i]
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].v < pts[j].v })
	var acc float64
	for _, q := range pts {
		if acc += q.w; acc >= total/2 {
			return q.v
		}
	}
	return pts[len(pts)-1].v
}

// throughput reports the pass figures, and request_p90_us over lat,
// every request latency of the run.
func (r *runner) throughput(p passes, lat []float64) error {
	if len(p.melems) < minPasses {
		return fmt.Errorf("%d passes leave fewer than %d beyond the slowest quartile", len(p.melems), minTail)
	}
	rate := quartile(p.melems, 0.25)
	r.e2e.set("melems_per_s", "Melem/s", rate)
	r.e2e.set("requests_per_s", "1/s", quartile(p.reqs, 0.25))
	r.e2e.set("request_p50_us", "us", quartile(p.p50, 0.75)/1e3)
	if len(p.floor) > 0 {
		r.e2e.set("st_floor_ratio", "x", quartile(p.floor, 0.25)/rate)
	}
	for _, n := range []string{"melems_per_s", "requests_per_s", "request_p50_us", "st_floor_ratio"} {
		r.samples[n] = len(p.melems)
	}
	return r.latency(r.e2e, lat, requestP90)
}

// minPasses puts minTail passes beyond a quartile.
const minPasses = 4*minTail + 1

// quartile returns the q-quantile of xs (nearest rank), sorting xs.
func quartile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	v, _ := quantile(xs, q)
	return v
}

// quantile returns the nearest-rank q-quantile of sorted and whether at
// least minTail samples lie beyond it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= minTail
}

// dynRanges draws n dynamic ranges from [10, 40] bits, stratified: the
// i-th comes from the i-th of n equal slices of the range, and the order
// is shuffled, so every seed covers the range alike.
func dynRanges(rng *rand.Rand, n int) []int {
	drs := make([]int, n)
	for i := range drs {
		drs[i] = 10 + int((float64(i)+rng.Float64())*31/float64(n))
	}
	rng.Shuffle(n, func(i, j int) { drs[i], drs[j] = drs[j], drs[i] })
	return drs
}

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream*0x9e3779b97f4a7c15+1))
}

// ---- tracing ----

// spanName indexes the layer boundaries the replays put spans around.
type spanName uint8

const (
	spCore spanName = iota
	spProfile
	spDecide
	spSecondPass
	spKernelBN
	spFinalize
	spKernelST
	spClientDeposit
	spFlush
	spSnapshot
	spAdd
	spAddSlice
	spMerge
	spSnapCopy
	spAppend
	spDecode
	spWorldRun
	spRank
	spProfileLocal
	spAllReduce
	spLocalState
	spReduce
	numSpans
)

var spanNames = [numSpans]string{
	"core.sum", "selector.profile", "selector.decide", "sum.second_pass",
	"kernel.bn", "binned.finalize", "kernel.st",
	"aggsrv.client.deposit", "aggsrv.client.flush", "aggsrv.client.snapshot",
	"binned.add", "binned.addslice", "binned.merge", "binned.snapshot",
	"wire.append_binned", "wire.decode_binned",
	"mpirt.world_run", "mpirt.rank", "selector.profile_local",
	"mpirt.profile_allreduce", "sum.local_state", "mpirt.reduce",
}

// span is one timed call: the request it belongs to, its parent span
// (0 for a root) and its interval in ns since the tracer's base.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans for one goroutine in memory; per-name totals are
// kept for every span, raw spans up to a cap.
type tracer struct {
	base  time.Time
	next  uint64
	raw   []rawSpan
	total [numSpans]int64
	count [numSpans]int64
}

type rawSpan struct {
	req, id, parent uint64
	name            spanName
	start, end      int64
}

// open is a started span.
type open struct {
	req, id, parent uint64
	name            spanName
	start           int64
}

// newTracer returns a tracer whose span ids start at idBase<<40, so ids
// from different goroutines' tracers never collide.
func newTracer(base time.Time, idBase uint64, rawCap int) *tracer {
	return &tracer{base: base, next: idBase << 40, raw: make([]rawSpan, 0, rawCap)}
}

func (t *tracer) start(req, parent uint64, name spanName) open {
	t.next++
	return open{req: req, id: t.next, parent: parent, name: name, start: int64(time.Since(t.base))}
}

// stop ends o and returns its duration in ns.
func (t *tracer) stop(o open) int64 {
	end := int64(time.Since(t.base))
	d := end - o.start
	t.total[o.name] += d
	t.count[o.name]++
	if len(t.raw) < cap(t.raw) {
		t.raw = append(t.raw, rawSpan{o.req, o.id, o.parent, o.name, o.start, end})
	}
	return d
}

// add folds other's totals into t (raw spans stay with their tracer).
func (t *tracer) add(o *tracer) {
	for i := range t.total {
		t.total[i] += o.total[i]
		t.count[i] += o.count[i]
	}
}

func (t *tracer) ns(n spanName) float64 { return float64(t.total[n]) }

// keep queues t's raw spans for writing out at the end of the run.
func (r *runner) keep(t *tracer) {
	for _, s := range t.raw {
		r.spans = append(r.spans, span{s.req, s.id, s.parent, spanNames[s.name], s.start, s.end})
	}
}

func (r *runner) writeSpans(workload string) error {
	if err := os.MkdirAll(r.spanDir, 0o755); err != nil {
		return fmt.Errorf("span directory: %w", err)
	}
	path := filepath.Join(r.spanDir, fmt.Sprintf("%s-seed%d.jsonl", workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// ---- process counters ----

// counters are process-wide totals read before and after a phase.
type counters struct {
	allocs, gcs uint64
	cpu         time.Duration
}

// counterReader reads counters into a buffer it owns, so that reading
// allocates nothing the next reading would count.
type counterReader []metrics.Sample

func newCounterReader() counterReader {
	return counterReader{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
}

func (s counterReader) read() counters {
	metrics.Read(s)
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return counters{allocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64(), cpu: cpu}
}

func (c counters) since(before counters) counters {
	return counters{allocs: c.allocs - before.allocs, gcs: c.gcs - before.gcs, cpu: c.cpu - before.cpu}
}

// heapSampler tracks the peak live heap: the bytes each collection
// found reachable. Garbage between collections is left out; how much of
// it piles up depends on GC timing, which no change to the program
// controls and which varied peak samples of in-use heap by over 10 %
// between runs.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func readLive() uint64 {
	s := make([]metrics.Sample, 1)
	copy(s, liveHeap)
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, readLive())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish collects once more, so what the run left reachable counts,
// stops the sampler and reports peak_heap_mb.
func (h *heapSampler) finish(r *runner) {
	runtime.GC()
	live := readLive()
	close(h.stop)
	r.e2e.set("peak_heap_mb", "MB", float64(max(live, <-h.done))/(1<<20))
}

// settle collects the garbage data generation left behind, so the heap
// peak reflects the inputs and the program, not the generator.
func settle() { runtime.GC() }
