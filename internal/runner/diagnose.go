// Package runner owns the shared process lifecycle of every CLI in this
// repository: flag registration, SIGINT/SIGTERM handling, checkpoint
// load/flush (a shard.Checkpoint), observability session setup,
// scenario execution with parallel fan-out, per-point deadlines and
// retries (shard.Retry) and progress, and the exit protocol. A command
// is a thin shell — scenario selection plus output formatting — around
// an App.
package runner

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"deltasched/internal/core"
	"deltasched/internal/obs"
)

// Describe classifies an error for the user: infeasible scenarios and
// bad configurations get a distinguishing prefix so "the math says no"
// reads differently from "the input is wrong" and from an internal
// failure. The message starts with the tool name, example-style.
func Describe(tool string, err error) string {
	switch {
	case errors.Is(err, core.ErrInfeasible):
		return tool + ": infeasible scenario: " + err.Error()
	case errors.Is(err, core.ErrBadConfig):
		return tool + ": bad scenario: " + err.Error()
	default:
		return tool + ": " + err.Error()
	}
}

// Fail prints the classified error and exits 1. It is the shared form of
// the fail helper the example programs used to copy; a nil error is a
// no-op.
func Fail(tool string, err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, Describe(tool, err))
	os.Exit(1)
}

// Exit is the CLI exit protocol: nothing on success, exit 2 on -h (flag
// already printed the usage), exit 130 on interruption, exit 1 otherwise
// — with the classified message on stderr.
func Exit(tool string, err error) {
	if err == nil {
		return
	}
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, Describe(tool, err))
	if obs.Interrupted(err) {
		os.Exit(130)
	}
	os.Exit(1)
}
