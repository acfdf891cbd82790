// Package plot renders experiment series as ASCII line charts and CSV —
// the pure-Go substitution for the numeric plotting environment used to
// produce the paper's figures (DESIGN.md, substitutions table).
package plot

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is one labeled curve.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// MarshalJSON encodes the series under its field names, writing a
// non-finite Y value — an infeasible point, an unbounded bound — as
// null: JSON has no NaN or ±Inf, and one such value would otherwise fail
// the whole document it is part of.
func (s Series) MarshalJSON() ([]byte, error) {
	y := make([]*float64, len(s.Y))
	for i, v := range s.Y {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			y[i] = &s.Y[i]
		}
	}
	return json.Marshal(struct {
		Label string
		X     []float64
		Y     []*float64
	}{s.Label, s.X, y})
}

// Validate checks the series shape.
func (s Series) Validate() error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("plot: series %q: %d x-values vs %d y-values", s.Label, len(s.X), len(s.Y))
	}
	if len(s.X) == 0 {
		return fmt.Errorf("plot: series %q is empty", s.Label)
	}
	return nil
}

var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Options configures an ASCII chart.
type Options struct {
	Title  string
	XLabel string
	YLabel string
	Width  int  // plot area columns (default 72)
	Height int  // plot area rows (default 20)
	LogY   bool // logarithmic y axis
}

// ASCII renders the series as a text chart.
func ASCII(w io.Writer, opt Options, series ...Series) error {
	if len(series) == 0 {
		return errors.New("plot: no series")
	}
	if opt.Width <= 0 {
		opt.Width = 72
	}
	if opt.Height <= 0 {
		opt.Height = 20
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if err := s.Validate(); err != nil {
			return err
		}
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			if opt.LogY && y <= 0 {
				continue
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if xmin > xmax || ymin > ymax {
		return errors.New("plot: no finite data points")
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	tf := func(y float64) float64 { return y }
	if opt.LogY {
		tf = math.Log10
	}
	lo, hi := tf(ymin), tf(ymax)

	grid := make([][]byte, opt.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", opt.Width))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			if opt.LogY && y <= 0 {
				continue
			}
			cx := int(math.Round((x - xmin) / (xmax - xmin) * float64(opt.Width-1)))
			cy := int(math.Round((tf(y) - lo) / (hi - lo) * float64(opt.Height-1)))
			row := opt.Height - 1 - cy
			grid[row][cx] = mark
		}
	}

	if opt.Title != "" {
		fmt.Fprintf(w, "%s\n", opt.Title)
	}
	yfmt := func(v float64) string { return fmt.Sprintf("%10.3g", v) }
	for r := 0; r < opt.Height; r++ {
		frac := float64(opt.Height-1-r) / float64(opt.Height-1)
		yv := lo + frac*(hi-lo)
		if opt.LogY {
			yv = math.Pow(10, yv)
		}
		label := strings.Repeat(" ", 10)
		if r == 0 || r == opt.Height-1 || r == opt.Height/2 {
			label = yfmt(yv)
		}
		fmt.Fprintf(w, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", 10), strings.Repeat("-", opt.Width))
	fmt.Fprintf(w, "%s  %-*.4g%*.4g\n", strings.Repeat(" ", 10), opt.Width/2, xmin, opt.Width-opt.Width/2, xmax)
	if opt.XLabel != "" || opt.YLabel != "" {
		fmt.Fprintf(w, "%s  x: %s    y: %s\n", strings.Repeat(" ", 10), opt.XLabel, opt.YLabel)
	}
	for si, s := range series {
		fmt.Fprintf(w, "%s  %c %s\n", strings.Repeat(" ", 10), markers[si%len(markers)], s.Label)
	}
	return nil
}

// CSV writes the series in long format: label,x,y — one row per point,
// sorted by label then x, suitable for any downstream plotting tool.
func CSV(w io.Writer, series ...Series) error {
	if len(series) == 0 {
		return errors.New("plot: no series")
	}
	if _, err := fmt.Fprintln(w, "series,x,y"); err != nil {
		return err
	}
	ordered := append([]Series(nil), series...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Label < ordered[j].Label })
	for _, s := range ordered {
		if err := s.Validate(); err != nil {
			return err
		}
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", csvEscape(s.Label), s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Table renders series as an aligned text table with one row per x value
// and one column per series — the "same rows the paper reports" format.
func Table(w io.Writer, xName string, series ...Series) error {
	if len(series) == 0 {
		return errors.New("plot: no series")
	}
	// Collect the union of x values.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		if err := s.Validate(); err != nil {
			return err
		}
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)

	fmt.Fprintf(w, "%-12s", xName)
	for _, s := range series {
		fmt.Fprintf(w, " %16s", truncate(s.Label, 16))
	}
	fmt.Fprintln(w)
	for _, x := range xs {
		fmt.Fprintf(w, "%-12.4g", x)
		for _, s := range series {
			v, ok := lookup(s, x)
			if !ok {
				fmt.Fprintf(w, " %16s", "-")
				continue
			}
			fmt.Fprintf(w, " %16.4g", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func lookup(s Series, x float64) (float64, bool) {
	for i := range s.X {
		if s.X[i] == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
