package core

import (
	"context"
	"errors"
	"testing"

	"deltasched/internal/envelope"
)

// TestErrorTaxonomy pins the contract of the typed error sentinels:
// every validation failure is an ErrBadConfig, every "no bound exists"
// outcome an ErrInfeasible, and the historical sentinels remain
// detectable through the new taxonomy.
func TestErrorTaxonomy(t *testing.T) {
	if !errors.Is(ErrUnstable, ErrInfeasible) {
		t.Fatal("ErrUnstable must be an ErrInfeasible")
	}
	if !errors.Is(ErrUnknownFlow, ErrBadConfig) {
		t.Fatal("ErrUnknownFlow must be an ErrBadConfig")
	}

	// Validation errors carry ErrBadConfig.
	bad := PathConfig{H: 0}
	if err := bad.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Validate error %v is not ErrBadConfig", err)
	}
	if _, _, err := OptimizeAlphaFunc(context.Background(), func(context.Context, float64) (float64, int, error) { return 0, 0, nil }, 5, 1); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad alpha range error %v is not ErrBadConfig", err)
	}

	// Overload errors carry ErrInfeasible (via ErrUnstable).
	src := envelope.PaperSource()
	through, err := src.EBBAggregate(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := src.EBBAggregate(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	over := PathConfig{H: 2, C: 10, Through: through, Cross: cross, Delta0c: 0}
	if _, err := DelayBound(over, 1e-9); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("overloaded path error %v is not ErrInfeasible", err)
	}
}

// TestOptimizeAlphaFuncPropagatesCancellation ensures an interrupt is
// not misreported as "no feasible alpha": once the sweep's context is
// cancelled, no further probe runs and the sweep returns the context's
// error, whatever the objective returned.
func TestOptimizeAlphaFuncPropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, _, err := OptimizeAlphaFunc(ctx, func(context.Context, float64) (float64, int, error) {
		calls++
		if calls == 2 {
			cancel()
		}
		return 1, calls, nil
	}, 1e-3, 50)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrInfeasible) {
		t.Fatal("cancellation was classified as infeasibility")
	}
	if calls != 2 {
		t.Fatalf("sweep evaluated %d times, want 2: no probe may run after cancellation", calls)
	}
}

func TestEDFNoConvergenceSentinelExists(t *testing.T) {
	// The sentinel itself must be classifiable; the bisection that can
	// produce it converges on every reachable configuration, so only the
	// wiring is checked here.
	if errors.Is(ErrNoConvergence, ErrInfeasible) || errors.Is(ErrNoConvergence, ErrBadConfig) {
		t.Fatal("ErrNoConvergence must be its own category")
	}
	if ErrNoConvergence.Error() == "" {
		t.Fatal("empty sentinel message")
	}
}
