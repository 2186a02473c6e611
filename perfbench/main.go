// Command perfbench is the repository's end-to-end benchmark. It drives
// the three request paths — core.Runtime.Sum, the aggregation server
// (reprosumd's engine) and the adaptive mpirt collective — through their
// entry points on inputs generated from --seed, checks every result, and
// prints one JSON line of metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics (measured by replaying each path step by step
// with spans around every call) with --trace 1.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sum-exact --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare old.out new.out
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 replays each path with spans and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := mainErr(*workload, *seed, *seconds, *traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds float64, traceFlag int) error {
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	d, err := loadDecls("BENCHMARK.json")
	if err != nil {
		return err
	}
	r := &runner{
		p:       defaultParams(),
		seed:    seed,
		window:  time.Duration(seconds * float64(time.Second)),
		trace:   traceFlag == 1,
		spanDir: filepath.Join(".bench_build", "spans"),
	}
	rec, err := r.run(workload, d)
	if err != nil {
		return err
	}
	rec.print(os.Stdout, os.Stderr)
	return nil
}

// params sizes the workloads. defaultParams is the benchmark; the tests
// shrink it.
type params struct {
	poolArrays int // sum-exact: pre-generated arrays
	adaptPool  int // sum-adaptive: pre-generated arrays its calls slice
	arrayLen   int // elements per pool array
	schedCalls int // sum-adaptive: calls in the cyclic schedule
	minLog     int // sum-adaptive: call sizes are log-uniform in [2^minLog, 2^maxLog]
	maxLog     int

	clients    int // serve: connections, each a closed-loop client
	serveSched int // serve: batch descriptors per client (cycled)
	tenants    int // serve: tenant keys besides the hot key
	servePool  int // serve: scalars in the deposit value pool
	// bucket slices a serve window for throughput: a run reports the
	// median over full buckets, which a transient stall elsewhere on the
	// host moves less than a whole-window mean.
	bucket time.Duration

	ranks    int // collective: world size
	perRank  int // collective: elements per rank
	collSets int // collective: pre-generated data sets (cycled)

	setups     int // set-up repetitions behind setup_s
	minSamples int // a run measures until every percentile has this many samples
	maxStretch int // ... but stops at this multiple of --seconds regardless
}

func defaultParams() params {
	return params{
		poolArrays: 32, adaptPool: 8, arrayLen: 1 << 20,
		schedCalls: 1024, minLog: 10, maxLog: 18,
		clients: 2, serveSched: 4096, tenants: 1024, servePool: 1 << 20, bucket: 100 * time.Millisecond,
		ranks: 64, perRank: 1 << 14, collSets: 8,
		setups:     61,
		minSamples: 1000, maxStretch: 3,
	}
}

// decls are the metric names and units BENCHMARK.json declares; a run
// must emit exactly these.
type decls struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDecls(path string) (decls, error) {
	var d decls
	b, err := os.ReadFile(path)
	if err != nil {
		return d, fmt.Errorf("reading metric declarations: %w", err)
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("parsing %s: %w", path, err)
	}
	return d, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds named metrics.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// record is everything one run reports. The last line printed is the
// result object; the line before it carries host metadata and sample
// counts so that saved outputs can be compared (see compare).
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      hostInfo          `json:"host"`
	Samples   map[string]int    `json:"samples"`
	FailRatio float64           `json:"fail_ratio"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Result    resultLine        `json:"-"`
	order     []string
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (rec *record) print(stdout, stderr *os.File) {
	for _, n := range rec.order {
		m := rec.Metrics[n]
		s := ""
		if c, ok := rec.Samples[n]; ok {
			s = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(stderr, "%-40s %14.6g %-10s%s\n", n, m.Value, m.Unit, s)
	}
	fmt.Fprintf(stderr, "%-40s %14.6g (%d of %d failed)\n", "fail_ratio", rec.FailRatio,
		rec.Result.Failed, rec.Result.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintln(stderr, "failure:", f)
	}
	b, _ := json.Marshal(rec)
	fmt.Fprintf(stdout, "record %s\n", b)
	b, _ = json.Marshal(rec.Result)
	fmt.Fprintf(stdout, "%s\n", b)
}

// finish checks the emitted metrics against the declarations and builds
// the record. End-to-end metrics must all be present; per-layer metrics
// a workload does not exercise read 0.
func (r *runner) finish(workload string, d decls) (*record, error) {
	want, got := d.EndToEnd, r.e2e
	if r.trace {
		want, got = d.PerLayer, r.layer
	}
	declared := map[string]string{}
	for _, m := range want {
		declared[m.Name] = m.Unit
	}
	for n, m := range got {
		u, ok := declared[n]
		if !ok {
			return nil, fmt.Errorf("%s emitted undeclared metric %q", workload, n)
		}
		if u != m.Unit {
			return nil, fmt.Errorf("metric %q has unit %q, declared %q", n, m.Unit, u)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %q is not finite", n)
		}
	}
	rec := &record{
		Workload: workload, Seed: r.seed, Trace: r.trace,
		Host: r.host, Samples: r.samples, Failures: r.failures,
		Metrics: map[string]metric{},
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			if !r.trace {
				return nil, fmt.Errorf("%s did not emit end-to-end metric %q", workload, m.Name)
			}
			v = metric{Value: 0, Unit: m.Unit}
		}
		rec.Metrics[m.Name] = v
		rec.order = append(rec.order, m.Name)
	}
	if r.attempted > 0 {
		rec.FailRatio = float64(r.failed) / float64(r.attempted)
	}
	rec.Result = resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: rec.Metrics,
	}
	return rec, nil
}

// median returns the median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
