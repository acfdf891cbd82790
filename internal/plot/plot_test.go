package plot

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestASCIIRendersAllSeries(t *testing.T) {
	var buf bytes.Buffer
	s1 := Series{Label: "alpha", X: []float64{0, 1, 2}, Y: []float64{1, 2, 3}}
	s2 := Series{Label: "beta", X: []float64{0, 1, 2}, Y: []float64{3, 2, 1}}
	err := ASCII(&buf, Options{Title: "T", XLabel: "x", YLabel: "y"}, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T", "alpha", "beta", "*", "o", "x: x"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestASCIILogYSkipsNonPositive(t *testing.T) {
	var buf bytes.Buffer
	s := Series{Label: "l", X: []float64{0, 1, 2}, Y: []float64{0, 10, 100}}
	if err := ASCII(&buf, Options{LogY: true}, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "*") {
		t.Error("log chart should still plot the positive points")
	}
}

func TestASCIIErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := ASCII(&buf, Options{}); err == nil {
		t.Error("no series must error")
	}
	bad := Series{Label: "b", X: []float64{1}, Y: []float64{1, 2}}
	if err := ASCII(&buf, Options{}, bad); err == nil {
		t.Error("mismatched lengths must error")
	}
	nan := Series{Label: "n", X: []float64{1}, Y: []float64{math.NaN()}}
	if err := ASCII(&buf, Options{}, nan); err == nil {
		t.Error("all-NaN series must error")
	}
}

func TestCSVFormat(t *testing.T) {
	var buf bytes.Buffer
	s := Series{Label: "fifo, H=2", X: []float64{1, 2}, Y: []float64{3.5, 4}}
	if err := CSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "series,x,y\n\"fifo, H=2\",1,3.5\n\"fifo, H=2\",2,4\n"
	if got != want {
		t.Fatalf("CSV output:\n%q\nwant:\n%q", got, want)
	}
}

func TestSeriesJSONWritesNonFiniteAsNull(t *testing.T) {
	s := Series{Label: "sp", X: []float64{1, 2, 3, 4}, Y: []float64{0.5, math.NaN(), math.Inf(1), math.Inf(-1)}}
	got, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Label":"sp","X":[1,2,3,4],"Y":[0.5,null,null,null]}`; string(got) != want {
		t.Fatalf("json = %s, want %s", got, want)
	}
}

func TestTableAlignsRows(t *testing.T) {
	var buf bytes.Buffer
	a := Series{Label: "A", X: []float64{1, 2}, Y: []float64{10, 20}}
	b := Series{Label: "B", X: []float64{2, 3}, Y: []float64{200, 300}}
	if err := Table(&buf, "H", a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "H") || !strings.Contains(out, "-") {
		t.Errorf("table missing header or placeholder:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 4 { // header + 3 x-values
		t.Errorf("expected 4 lines, got %d:\n%s", lines, out)
	}
}
