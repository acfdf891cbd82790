// Error taxonomy of the analysis core. Every error returned by this
// package wraps one of the three sentinels below (directly or through a
// more specific sentinel such as ErrUnstable), so callers can classify
// failures with errors.Is instead of matching message strings:
//
//	ErrBadConfig     the caller's inputs are invalid (wrong ranges, NaN,
//	                 missing envelopes) — retrying is pointless until the
//	                 configuration changes;
//	ErrInfeasible    the inputs are valid but no finite bound exists at
//	                 them (load at or beyond capacity, no feasible
//	                 optimizer point) — a legitimate answer for a sweep
//	                 point, typically recorded as NaN and skipped;
//	ErrNoConvergence a numerical procedure exhausted its iteration budget
//	                 without meeting its tolerance — the result cannot be
//	                 trusted and the point should be attributed as a
//	                 failure, not as infeasible.
package core

import (
	"errors"
	"fmt"
)

// ErrBadConfig indicates invalid caller-supplied configuration.
var ErrBadConfig = errors.New("core: bad configuration")

// ErrInfeasible indicates that no finite bound exists for a valid
// configuration.
var ErrInfeasible = errors.New("core: infeasible")

// ErrNoConvergence indicates that an iterative solver ran out of its
// iteration budget before reaching its tolerance.
var ErrNoConvergence = errors.New("core: solver did not converge")

// ErrUnstable is the historical name for the most common infeasibility:
// the long-term load reaches or exceeds the link capacity, so no finite
// delay bound exists. It wraps ErrInfeasible, so both
// errors.Is(err, ErrUnstable) and errors.Is(err, ErrInfeasible) hold for
// errors derived from it.
var ErrUnstable = fmt.Errorf("%w: no finite delay bound (load >= capacity)", ErrInfeasible)

// ErrUnknownFlow indicates a flow id without an envelope — a
// configuration error.
var ErrUnknownFlow = fmt.Errorf("%w: flow has no envelope", ErrBadConfig)

// badConfig tags a formatted message with ErrBadConfig.
func badConfig(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, args...))
}

// checkEps is every entry point's check of a violation probability: it
// must lie in (0, 1), which NaN does not.
func checkEps(eps float64) error {
	if !(eps > 0 && eps < 1) {
		return badConfig("violation probability must be in (0,1), got %g", eps)
	}
	return nil
}
