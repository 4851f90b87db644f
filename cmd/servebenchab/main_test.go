package main

import (
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5}, [3]float64{5, 5, 5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.75, 2.5, 3.25}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{3.25, 5.5, 7.75}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestLastResult(t *testing.T) {
	out := "# servebench workload=mixed\nop_p50_ms 0.6 ms\n" +
		`{"correct": true, "attempted": 40, "failed": 1, "metrics": {"op_p50_ms": {"value": 0.6, "unit": "ms"}}}` + "\n"
	res, err := lastResult(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 40 || res.Failed != 1 || res.Metrics["op_p50_ms"].Value != 0.6 {
		t.Errorf("parsed %+v", res)
	}
	if _, err := lastResult(strings.NewReader(`{"correct": false, "metrics": {}}`)); err == nil {
		t.Error("an incorrect run parsed without error")
	}
	if _, err := lastResult(strings.NewReader("servebench: prepare failed\n")); err == nil {
		t.Error("a run without a result line parsed without error")
	}
}

// TestSummarizeCountsWins: wins follow each metric's direction and
// ties count for neither side.
func TestSummarizeCountsWins(t *testing.T) {
	mk := func(v float64) result {
		r := result{Correct: true, Attempted: 10}
		r.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"op_p50_ms": {v}, "rate": {v}}
		return r
	}
	pairs := []pair{
		{seed: 1, parent: mk(2), change: mk(1)},
		{seed: 2, parent: mk(2), change: mk(2)},
		{seed: 3, parent: mk(2), change: mk(3)},
	}
	decls := []metricDecl{{Name: "op_p50_ms", Unit: "ms", Better: "lower"}, {Name: "rate", Unit: "1/s", Better: "higher"}}
	var b strings.Builder
	summarize(&b, "mixed", "HEAD", decls, pairs, 3)
	out := b.String()
	for _, want := range []string{"3 of 3 pairs completed", "op_p50_ms", "1 of 3", "attempted / failed: parent 30 / 0, change 30 / 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "1 of 3") != 2 {
		t.Errorf("want one win per metric (lower and higher), got:\n%s", out)
	}
}
