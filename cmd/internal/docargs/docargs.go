// Package docargs reads the command lines the repository's docs show,
// so each command's tests can run every documented line.
package docargs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Args returns the arguments of every command line in the repository's
// README.md and EXPERIMENTS.md that runs tool: each
// `go run ./cmd/<tool> …`, a table cell included, and each bare
// `<tool> -…` in a fenced block. Synopsis lines, which contain [ or |,
// are skipped. It reads the docs two directories up, from the
// cmd/<tool> directory a command's tests run in.
func Args(t testing.TB, tool string) [][]string {
	t.Helper()
	var out [][]string
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for _, line := range strings.Split(strings.ReplaceAll(string(raw), "\\\n", ""), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
			}
			_, cmd, ok := strings.Cut(line, "go run ./cmd/"+tool)
			if !ok && fenced && strings.HasPrefix(line, tool+" -") {
				cmd, ok = strings.TrimPrefix(line, tool), true
			}
			cmd, _, _ = strings.Cut(cmd, "`")  // the end of a code span
			cmd, _, _ = strings.Cut(cmd, " #") // a shell comment
			if ok && !strings.ContainsAny(cmd, "[|") {
				out = append(out, strings.Fields(cmd))
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("README.md and EXPERIMENTS.md show no %s command line", tool)
	}
	return out
}
