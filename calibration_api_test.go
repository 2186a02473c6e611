package repro_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/selector"
	"repro/internal/sum"
)

// TestPublicCalibrationLoop drives the closed loop end to end through
// the public API: calibrate (quick envelope), persist, load, install
// with WithCalibration, and serve — the runtime must still honor the
// tolerance contract (tolerance 0 resolves to a reproducible rung) and
// expose cache statistics from the auto-attached decision cache.
func TestPublicCalibrationLoop(t *testing.T) {
	cal := selector.RunCalibration(selector.HarnessConfig{
		Accuracy: selector.CalibrationConfig{
			Ns:     []int{256, 1024},
			Ks:     []float64{1, 1e4, 1e8},
			DRs:    []int{0, 16},
			Trials: 8,
			Seed:   21,
		},
		Cost: selector.CostSweepConfig{
			Ns:         []int{256},
			Workers:    []int{0},
			LaneWidths: []int{1},
			MinTime:    100 * time.Microsecond,
			Reps:       1,
		},
		Host: "api-test",
	})

	path := filepath.Join(t.TempDir(), "host.reprocal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := selector.SaveCalibration(f, cal); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := repro.LoadCalibrationFile(path)
	if err != nil {
		t.Fatalf("LoadCalibrationFile: %v", err)
	}
	if loaded.Host != "api-test" || len(loaded.Cells) != len(cal.Cells) {
		t.Fatalf("loaded artifact host=%q cells=%d, want api-test/%d", loaded.Host, len(loaded.Cells), len(cal.Cells))
	}

	rt := repro.New(0, repro.WithCalibration(loaded))
	xs := []float64{3.5, -3.5, 1.25, 2.75}
	total, rep := rt.Sum(xs)
	if total != 4 {
		t.Errorf("calibrated runtime sum = %g, want 4", total)
	}
	if rep.Algorithm != repro.Binned && rep.Algorithm != repro.Prerounded {
		t.Errorf("tolerance 0 under calibration picked %v, want a reproducible algorithm", rep.Algorithm)
	}
	if _, ok := rt.CacheStats(); !ok {
		t.Error("WithCalibration did not attach a decision cache")
	}

	// A loose tolerance must serve through the surface without escalating
	// past the reproducible floor on benign data. "Costlier" means the
	// artifact's own measured cost order, which is what the surface
	// walks: a noisy host (the race detector, say) can time K below BN,
	// and the static CostRank would then call a correct pick wrong.
	loose := repro.New(1e-6, repro.WithCalibration(loaded))
	_, rep = loose.Sum(xs)
	order := loaded.SurfacePolicy().WalkOrder(int64(len(xs)))
	pick, floor := slices.Index(order, rep.Algorithm), slices.Index(order, sum.BinnedAlg)
	if pick < 0 || floor < 0 || pick > floor {
		t.Errorf("loose tolerance picked %v, costlier than the reproducible floor in the measured order %v",
			rep.Algorithm, order)
	}
}

// TestPublicLoadCalibrationRejectsGarbage pins the public loader's
// error path.
func TestPublicLoadCalibrationRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.reprocal")
	if err := os.WriteFile(path, []byte("not a calibration\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.LoadCalibrationFile(path); err == nil {
		t.Error("garbage artifact loaded without error")
	}
	if _, err := repro.LoadCalibrationFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file loaded without error")
	}
}
