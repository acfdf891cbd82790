package experiments

import (
	"errors"
	"testing"

	"deltasched/internal/core"
	"deltasched/internal/envelope"
)

// videoSource is a three-level Markov source with the same mean rate as
// the paper's MMOO flow (≈0.1486 kbit/ms) but a higher peak — the
// "extension" traffic model showing the analysis is not tied to two-state
// sources.
func videoSource() envelope.MarkovSource {
	return envelope.MarkovSource{
		Rates: []float64{0, 0.5, 3.0},
		Trans: [][]float64{
			{0.980, 0.018, 0.002},
			{0.060, 0.920, 0.020},
			{0.050, 0.150, 0.800},
		},
	}
}

func TestVideoSourceCalibration(t *testing.T) {
	src := videoSource()
	mean, err := src.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	// Comparable mean to the paper's flow (same order of magnitude) but a
	// higher peak, i.e. burstier.
	if mean < 0.05 || mean > 0.3 {
		t.Fatalf("video source mean %g out of the calibrated range", mean)
	}
	if src.PeakRate() <= envelope.PaperSource().PeakRate() {
		t.Fatal("video source should have a higher peak than the paper's MMOO")
	}
}

func TestBoundModelMultiState(t *testing.T) {
	s := PaperSetup()
	src := videoSource()
	mean, err := src.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	// 50% utilization with equal through/cross populations.
	n := 0.5 * s.Capacity / mean / 2
	const h = 5
	bmux, err := s.BoundModel(src, BMUX, h, n, n)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := s.BoundModel(src, FIFO, h, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if !(fifo <= bmux) || fifo <= 0 {
		t.Fatalf("ordering violated for multi-state traffic: FIFO %g vs BMUX %g", fifo, bmux)
	}
	// The burstier multi-state source must need larger bounds than the
	// paper's source at the same utilization and scheduler.
	mmooN := s.FlowCount(0.5) / 2
	mmooBound, err := s.Bound(BMUX, h, mmooN, mmooN)
	if err != nil {
		t.Fatal(err)
	}
	if bmux <= mmooBound {
		t.Fatalf("burstier source should have a larger bound: %g vs MMOO %g", bmux, mmooBound)
	}
	// FIFO→BMUX convergence persists across traffic models.
	if fifo < 0.9*bmux {
		t.Fatalf("FIFO/BMUX convergence at H=5 expected for any EBB traffic: %g vs %g", fifo, bmux)
	}
}

func TestBoundModelValidation(t *testing.T) {
	s := PaperSetup()
	if _, err := s.BoundModel(nil, FIFO, 2, 10, 10); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("BoundModel with a nil model: want core.ErrBadConfig, got %v", err)
	}
	if _, _, err := s.PathBound(nil, 2, 10, 10, 0); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("PathBound with a nil model: want core.ErrBadConfig, got %v", err)
	}
}
