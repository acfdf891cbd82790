package main

import (
	"bytes"
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestExitProtocol checks runner.Exit on the built binary: the exit code
// and the start of stderr for help and for a bad flag value.
func TestExitProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildPaperfigs(t, t.TempDir())
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // required prefix; "" checks nothing
	}{
		{[]string{"-h"}, 2, ""},
		{[]string{"-fig", "9"}, 1, "paperfigs: bad scenario:"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if code != tc.code || !strings.HasPrefix(stderr.String(), tc.stderr) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d, stderr starting %q",
				tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}
