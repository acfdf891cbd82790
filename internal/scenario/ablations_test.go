package scenario

import (
	"context"
	"errors"
	"testing"
)

// TestAblationsStopOnCancelledContext: every ablation grid checks its
// context, so an interrupted ablate run ends with the context's error
// instead of a full result, or for region a wrong one, with a nil error.
func TestAblationsStopOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"scaling", "edf-gain", "recipe", "gamma-alpha", "region"} {
		t.Run(name, func(t *testing.T) {
			sc, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sc.Evaluate(ctx, Config{"quick": true}, Point{}, Analytic); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled %s returned %v, want context.Canceled", name, err)
			}
		})
	}
}
