package obs

import (
	"context"
	"errors"
	"os"
	"os/signal"
	"syscall"
)

// ErrInterrupted is the error a command's run function returns when a
// SIGINT or SIGTERM cut the run short. Exit maps it to status 130 (the
// shell convention for death-by-SIGINT), and Interrupted detects it
// anywhere in a wrap chain.
var ErrInterrupted = errors.New("interrupted")

// SignalContext returns a context that is cancelled on SIGINT or
// SIGTERM, plus a stop function releasing the signal registration. The
// registration is released before the context is cancelled, so a second
// signal after the first has been seen kills the process the default
// way — a wedged cleanup path must not make the tool unkillable.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-ch:
		case <-ctx.Done():
		}
		signal.Stop(ch)
		cancel()
	}()
	return ctx, func() {
		signal.Stop(ch)
		cancel()
	}
}

// Interrupted reports whether err is the result of a cancelled run:
// ErrInterrupted or context.Canceled anywhere in its chain. Commands use
// it to decide whether to mark the run report interrupted, and Exit uses
// it to pick status 130.
func Interrupted(err error) bool {
	return errors.Is(err, ErrInterrupted) || errors.Is(err, context.Canceled)
}
