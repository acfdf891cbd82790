package runner

import (
	"fmt"
	"io"

	"deltasched/internal/scenario"
)

// PrintCatalog writes the scenario registry — name, backends,
// description, and the parameter schema of every registered scenario —
// in the format of the -scenarios flag.
func PrintCatalog(w io.Writer) error {
	for _, info := range scenario.Infos() {
		if _, err := fmt.Fprintf(w, "%s  (backends: %s)\n    %s\n", info.Name, info.Backends, info.Desc); err != nil {
			return err
		}
		for _, p := range info.Params {
			if _, err := fmt.Fprintf(w, "      %-12s %-7T default %-8v %s\n", p.Name, p.Default, p.Default, p.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
