package main

import (
	"math"
	"testing"
	"time"
)

// smallParams shrinks every workload so one run takes well under a
// second; minSamples stays at 1000 so the p99 is still reportable.
func smallParams() params {
	return params{
		poolArrays: 4, adaptPool: 4, arrayLen: 1 << 12,
		schedCalls: 32, minLog: 6, maxLog: 11,
		clients: 2, serveSched: 512, tenants: 8, servePool: 1 << 14, bucket: 20 * time.Millisecond,
		ranks: 8, perRank: 1 << 9, collSets: 4,
		setups:     3,
		minSamples: 1000, maxStretch: 200,
	}
}

func smallRun(t *testing.T, workload string, trace bool, f faults) (*runner, *record) {
	t.Helper()
	d, err := loadDecls("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{p: smallParams(), seed: 7, window: 20 * time.Millisecond, trace: trace,
		spanDir: t.TempDir(), faults: f}
	rec, err := r.run(workload, d)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	return r, rec
}

// ownLayers are the per-layer metrics each workload measures itself and
// that must come out positive on it.
var ownLayers = map[string][]string{
	"sum-exact": {"selector.profile.ns_per_elem", "selector.decide.ns", "kernel.bn.ns_per_elem",
		"kernel.st.ns_per_elem", "binned.finalize.ns", "core.self.ns", "core.calls",
		"core.route.second_pass_share", "core.pick.BN_share", "core.bytes_read_per_elem",
		"request.p99_us", "trace.overhead_ratio"},
	"sum-adaptive": {"selector.profile.ns_per_elem", "selector.decide.ns", "kernel.st.ns_per_elem",
		"core.self.ns", "core.calls", "core.route.fast_share", "core.pick.ST_share",
		"core.bytes_read_per_elem", "request.p99_us", "trace.overhead_ratio"},
	"serve": {"aggsrv.client.deposit_ns_per_scalar", "aggsrv.flush.p50_us", "aggsrv.flush.p99_us",
		"aggsrv.snapshot.p50_us", "aggsrv.snapshot.p99_us", "binned.add.ns_per_scalar",
		"binned.addslice.ns_per_scalar", "binned.merge.ns", "binned.snapshot.ns", "binned.finalize.ns",
		"wire.append_binned.ns", "wire.decode_binned.ns", "aggsrv.server.deposits",
		"aggsrv.server.batches", "aggsrv.server.snapshots", "aggsrv.server.keys",
		"proc.cpu_s_per_mdeposit", "request.p99_us", "trace.overhead_ratio"},
	"collective": {"selector.profile_local.ns_per_elem", "sum.local_state.ns_per_elem",
		"selector.decide.ns", "kernel.st.ns_per_elem", "mpirt.profile_allreduce.us",
		"mpirt.reduce.us", "mpirt.reduce.merges", "mpirt.reduce.merge_ns", "mpirt.rank_skew",
		"mpirt.model_cost", "mpirt.model_vs_measured", "request.p99_us", "trace.overhead_ratio"},
}

func TestWorkloadsSmall(t *testing.T) {
	d, err := loadDecls("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for workload := range workloads {
		t.Run(workload, func(t *testing.T) {
			_, rec := smallRun(t, workload, false, faults{})
			if !rec.Result.Correct || rec.Result.Failed != 0 {
				t.Fatalf("untraced run not correct: %+v %v", rec.Result, rec.Failures)
			}
			for _, m := range d.EndToEnd {
				v, ok := rec.Result.Metrics[m.Name]
				if !ok || !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			for _, n := range []string{"request_p50_us", "request_p90_us", "setup_s"} {
				if rec.Samples[n] == 0 {
					t.Errorf("%s reported without a sample count", n)
				}
			}

			r, rec := smallRun(t, workload, true, faults{})
			if !rec.Result.Correct {
				t.Fatalf("traced run not correct: %+v %v", rec.Result, rec.Failures)
			}
			if len(rec.Result.Metrics) != len(d.PerLayer) {
				t.Errorf("traced run emitted %d metrics, %d declared", len(rec.Result.Metrics), len(d.PerLayer))
			}
			for _, n := range ownLayers[workload] {
				v, ok := r.layer[n]
				if !ok || !(v.Value > 0) {
					t.Errorf("per-layer %s = %+v, want a positive measurement", n, v)
				}
			}
			if len(r.spans) == 0 {
				t.Error("traced run kept no spans")
			}
		})
	}
}

// TestOracleCountsCorruption flips one low bit of a BN result and alters
// one snapshot value: each must show up as a failure.
func TestOracleCountsCorruption(t *testing.T) {
	for _, tc := range []struct {
		workload string
		f        faults
	}{
		{"sum-exact", faults{flipBN: true}},
		{"collective", faults{flipBN: true}},
		{"serve", faults{badSnapshot: true}},
	} {
		_, rec := smallRun(t, tc.workload, false, tc.f)
		if rec.Result.Failed != 1 || rec.Result.Correct || !(rec.FailRatio > 0) {
			t.Errorf("%s with %+v: failed=%d correct=%v fail_ratio=%g, want exactly one failure",
				tc.workload, tc.f, rec.Result.Failed, rec.Result.Correct, rec.FailRatio)
		}
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := quantile(xs, 0.5); !ok || v != 50 {
		t.Errorf("p50 of 1..100 = %g, %v", v, ok)
	}
	if _, ok := quantile(xs, 0.99); ok {
		t.Error("p99 of 100 samples has 1 beyond it and must be refused")
	}
	if _, ok := quantile(xs, 0.9); !ok {
		t.Error("p90 of 100 samples has 10 beyond it and must be reported")
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := makePool(3, 4, 256), makePool(3, 4, 256), makePool(4, 4, 256)
	same, differ := true, false
	for i := range a {
		for j := range a[i].xs {
			same = same && math.Float64bits(a[i].xs[j]) == math.Float64bits(b[i].xs[j])
			differ = differ || a[i].xs[j] != c[i].xs[j]
		}
	}
	if !same || !differ {
		t.Errorf("same seed gives the same pool: %v; another seed gives another: %v", same, differ)
	}
}

func TestHostDiffsFlagsEveryField(t *testing.T) {
	a := hostInfo{CPUModel: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", GOARCH: "amd64",
		Caches: map[string]string{"L2": "2048K"}, PoolMiB: 256}
	if d := hostDiffs(a, a); len(d) != 0 {
		t.Errorf("identical hosts differ: %v", d)
	}
	b := a
	b.NProc, b.GOMAXPROCS = 4, 4
	b.Caches = map[string]string{"L2": "1024K"}
	if d := hostDiffs(a, b); len(d) != 3 {
		t.Errorf("got %d differences %v, want nproc, gomaxprocs and caches", len(d), d)
	}
}
