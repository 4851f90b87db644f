package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/beliefs"
	"repro/internal/serve"
)

// tiny is a workload on the power-6 Kronecker graph (729 nodes), so a
// whole run takes about a second.
func tiny(name string) workload {
	w := workloads[name]
	w.power = 6
	return w
}

func tinyConfig(t *testing.T, name string, trace bool) config {
	return config{
		w: tiny(name), seed: 5, seconds: 1, trace: trace, setups: 2,
		stateRoot: t.TempDir(), traceDir: t.TempDir(),
	}
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runTiny executes one tiny run and returns its log and result line.
func runTiny(t *testing.T, cfg config) (string, result) {
	t.Helper()
	var out, errs bytes.Buffer
	if code := execute(context.Background(), cfg, &out, &errs); code != 0 {
		t.Fatalf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", cfg.w.name, code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", cfg.w.name, err, out.String())
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Fatalf("%s: result %+v\n%s", cfg.w.name, r, out.String())
	}
	return out.String(), r
}

func checkMetrics(t *testing.T, name string, r result, want []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", name, len(r.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := r.Metrics[d.name]
		if !ok || m.Value == nil {
			t.Errorf("%s: metric %s missing", name, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: metric %s unit %q, want %q", name, d.name, m.Unit, d.unit)
		}
	}
}

// logNames are the metrics each workload's log prints by name.
var logNames = map[string][]string{
	"query":  {"setup_s", "solve_p50_ms", "solve_tail_ms", "failed_frac", "mem_peak_mb", "generator_late_ms"},
	"ingest": {"setup_s", "update_p50_ms", "update_tail_ms", "update_per_s", "failed_frac", "mem_peak_mb"},
	"mixed":  {"setup_s", "update_p50_ms", "update_tail_ms", "topk_p50_ms", "topk_tail_ms", "failed_frac", "mem_peak_mb", "generator_late_ms"},
}

func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	for _, name := range []string{"query", "ingest", "mixed"} {
		t.Run(name, func(t *testing.T) {
			log, r := runTiny(t, tinyConfig(t, name, false))
			checkMetrics(t, name, r, endToEnd)
			for _, m := range logNames[name] {
				if !strings.Contains(log, "\n"+m+" ") {
					t.Errorf("log lacks %s:\n%s", m, log)
				}
			}
			if !strings.Contains(log, "_tail_ms") || !strings.Contains(log, "n=") {
				t.Errorf("tails lack their percentile and sample count:\n%s", log)
			}
			if !strings.HasPrefix(log, "# servebench workload="+name+" seed=5 commit=") {
				t.Errorf("missing run header:\n%s", log)
			}
		})
	}
}

func TestTracedRunReportsLayersAndOverhead(t *testing.T) {
	for _, name := range []string{"query", "ingest", "mixed"} {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name, true)
			log, r := runTiny(t, cfg)
			checkMetrics(t, name, r, perLayer)
			for _, d := range endToEnd {
				if !strings.Contains(log, "overhead "+d.name+": untraced ") {
					t.Errorf("no tracing-overhead line for %s:\n%s", d.name, log)
				}
			}
			spans, err := os.ReadFile(filepath.Join(cfg.traceDir, name+"-5.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{`"name":"core.Prepare"`, `"name":"durable.write"`, `"name":"core.Update"`} {
				if !bytes.Contains(spans, []byte(want)) {
					t.Errorf("span file lacks %s", want)
				}
			}
			if name == "query" && !bytes.Contains(spans, []byte(`"name":"core.SolveBatch"`)) {
				t.Errorf("query span file lacks core.SolveBatch")
			}
			if v := *r.Metrics["core.prepare_s"].Value; !(v > 0) {
				t.Errorf("core.prepare_s = %v", v)
			}
		})
	}
}

func TestChecksRejectCorruptedAnswers(t *testing.T) {
	ctx := context.Background()
	t.Run("query", func(t *testing.T) {
		in := generate(tiny("query"), 3, 1)
		st, _, err := setUp(ctx, in, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		ph := newPhase(in)
		drive(ctx, st, in, 1, nil, ph)
		if c := verify(ctx, st, in, ph); c[0].err != nil {
			t.Fatalf("served answers rejected: %v", c[0].err)
		}
		for _, a := range ph.answers {
			a.Row(7)[1] += 1e-6
			break
		}
		if c := verify(ctx, st, in, ph); c[0].err == nil {
			t.Fatal("a corrupted answer passed the check")
		}
	})
	t.Run("fixpoint", func(t *testing.T) {
		in := generate(tiny("ingest"), 3, 1)
		st, _, err := setUp(ctx, in, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		ph := newPhase(in)
		drive(ctx, st, in, 0.5, nil, ph)
		pub, err := published(st.front, in.g.N())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkFixpoint(ctx, in, ph.applied, pub); err != nil {
			t.Fatalf("published fixpoint rejected: %v", err)
		}
		if _, err := checkFixpoint(ctx, in, ph.applied+1, pub); err == nil {
			t.Error("a fixpoint missing the last batch passed the check")
		}
		pub.Row(3)[0] += 1e-6
		if _, err := checkFixpoint(ctx, in, ph.applied, pub); err == nil {
			t.Error("a corrupted fixpoint passed the check")
		}
	})
	t.Run("topk", func(t *testing.T) {
		good := []serve.NodeBelief{{Node: 1, Belief: 0.3}, {Node: 2, Belief: 0.2}}
		if err := checkTops([][]serve.NodeBelief{good}, 2); err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]serve.NodeBelief{
			good[:1],
			{{Node: 1, Belief: 0.2}, {Node: 2, Belief: 0.3}},
			{{Node: 1, Belief: 0.3}, {Node: 2, Belief: nanValue()}},
		} {
			if err := checkTops([][]serve.NodeBelief{bad}, 2); err == nil {
				t.Errorf("bad answer %v passed", bad)
			}
		}
	})
}

func nanValue() float64 {
	zero := 0.0
	return zero / zero
}

func encode(t *testing.T, in *inputs) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := in.writeTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, name := range []string{"query", "ingest", "mixed"} {
		a := encode(t, generate(tiny(name), 11, 2))
		b := encode(t, generate(tiny(name), 11, 2))
		c := encode(t, generate(tiny(name), 12, 2))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

func TestWriteStreamShape(t *testing.T) {
	in := generate(tiny("ingest"), 4, 1)
	edges := map[[2]int]bool{}
	for _, e := range in.g.Edges() {
		edges[[2]int{min(e.S, e.T), max(e.S, e.T)}] = true
	}
	for i, c := range in.cycles {
		if len(c.edges) != in.w.batchSize || len(c.relabel.nodes) != in.w.batchSize {
			t.Fatalf("cycle %d: %d edges, %d relabels", i, len(c.edges), len(c.relabel.nodes))
		}
		for _, e := range c.edges {
			if e.S == e.T || edges[[2]int{min(e.S, e.T), max(e.S, e.T)}] {
				t.Fatalf("cycle %d inserts %v, a self-loop or a base edge", i, e)
			}
		}
		r := beliefs.New(in.g.N(), classes)
		c.relabel.writeInto(r) // panics on a row that does not sum to 0
		if got := len(r.ExplicitNodes()); got != in.w.batchSize {
			t.Fatalf("cycle %d relabels %d nodes", i, got)
		}
	}
}

// TestTailPercentile pins the tail at p90 whatever the sample count,
// so that runs with more samples are not compared at a higher
// percentile.
func TestTailPercentile(t *testing.T) {
	mk := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(i+1) * time.Millisecond
		}
		return ds
	}
	for _, tc := range []struct {
		n     int
		tail  float64
		above int
	}{{240, 216.1, 24}, {1000, 900.1, 100}, {10000, 9000.1, 1000}, {5, 4.6, 1}} {
		l := summarize(mk(tc.n))
		if math.Abs(l.tail-tc.tail) > 1e-9 || l.tailAbove != tc.above {
			t.Errorf("n=%d: tail %v with %d above, want %v with %d", tc.n, l.tail, l.tailAbove, tc.tail, tc.above)
		}
		if want := fmt.Sprintf("p90, n=%d, %d beyond", tc.n, tc.above); l.tailLabel() != want {
			t.Errorf("n=%d: label %q, want %q", tc.n, l.tailLabel(), want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span{ID: 1, Start: 0, End: 10 * ms}
	kids := []span{{Start: 1 * ms, End: 4 * ms}, {Start: 3 * ms, End: 5 * ms}, {Start: 8 * ms, End: 12 * ms}}
	if got := selfTime(parent, kids); got != 4*ms {
		t.Errorf("self time %v, want 4ms", got)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the tables the
// program reports from in step.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	// query stays runnable by hand but is not listed: its latencies
	// follow the host's vCPU contention too closely to hold a bound.
	if want := []string{"ingest", "mixed"}; !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	same := func(kind string, gotName, gotUnit, gotBetter []string, want []metricDef) {
		if len(gotName) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(gotName), len(want))
		}
		for i, d := range want {
			if gotName[i] != d.name || gotUnit[i] != d.unit || gotBetter[i] != d.better {
				t.Errorf("%s %d: file has %s %s %s, program reports %s %s %s",
					kind, i, gotName[i], gotUnit[i], gotBetter[i], d.name, d.unit, d.better)
			}
		}
	}
	var n, u, bt []string
	for _, m := range b.EndToEnd {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	same("end_to_end", n, u, bt, endToEnd)
	n, u, bt = nil, nil, nil
	for _, m := range b.PerLayer {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	same("per_layer", n, u, bt, perLayer)
}
