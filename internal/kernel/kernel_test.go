package kernel

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// refStep is the serial reference round — the seed implementation of
// linbp.Run's inner loop, kept verbatim with bounds-checked At() calls.
// The fused engine must reproduce it across all paths.
func refStep(next, cur, eData []float64, a *sparse.CSR, h, h2 *dense.Matrix, d []float64, n, k int, echo bool) float64 {
	ab := make([]float64, n*k)
	a.MulDenseInto(ab, cur, k)
	var delta float64
	for s := 0; s < n; s++ {
		abRow := ab[s*k : (s+1)*k]
		bRow := cur[s*k : (s+1)*k]
		nxRow := next[s*k : (s+1)*k]
		for i := 0; i < k; i++ {
			var v float64
			if eData != nil {
				v = eData[s*k+i]
			}
			for j := 0; j < k; j++ {
				v += abRow[j] * h.At(j, i)
			}
			if echo {
				var echoTerm float64
				for j := 0; j < k; j++ {
					echoTerm += bRow[j] * h2.At(j, i)
				}
				v -= d[s] * echoTerm
			}
			ch := math.Abs(v - bRow[i])
			if math.IsNaN(ch) {
				ch = math.Inf(1)
			}
			if ch > delta {
				delta = ch
			}
			nxRow[i] = v
		}
	}
	return delta
}

// randomCSR builds a symmetric sparse matrix with roughly avgDeg
// entries per row, deterministic in seed.
func randomCSR(n, avgDeg int, seed uint64) *sparse.CSR {
	rng := xrand.New(seed)
	b := sparse.NewBuilder(n, n)
	b.Reserve(n * avgDeg)
	for i := 0; i < n*avgDeg/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		b.AddSym(u, v, 0.5+rng.Float64())
	}
	return b.ToCSR()
}

// randomCoupling returns a small random symmetric k×k matrix scaled to
// keep the iteration contracting.
func randomCoupling(k int, seed uint64) *dense.Matrix {
	rng := xrand.New(seed)
	h := dense.New(k, k)
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			v := (rng.Float64() - 0.5) * 0.02
			h.Set(i, j, v)
			h.Set(j, i, v)
		}
	}
	return h
}

func degrees(a *sparse.CSR) []float64 { return a.RowSumsSquared() }

// TestEngineMatchesReference is the determinism/equivalence suite of
// the fused kernel: every unrolled and generic path, serial and
// parallel with worker counts {1, 2, 4, 8}, odd n, with and without the
// echo-cancellation term, must match the serial seed reference within
// 1e-12 after several rounds.
func TestEngineMatchesReference(t *testing.T) {
	const iters = 7
	for _, n := range []int{1, 9, 257} { // odd sizes, including a 1-node graph
		for _, k := range []int{1, 2, 3, 4, 5, 7} { // unrolled {1,2,3,5} + generic {4,7}
			for _, echo := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4, 8} {
					a := randomCSR(n, 6, uint64(n*k+1))
					h := randomCoupling(k, uint64(k)+3)
					var d []float64
					if echo {
						d = degrees(a)
					}
					// Random explicit beliefs on ~20% of nodes.
					rng := xrand.New(uint64(n) + 17)
					e := make([]float64, n*k)
					for i := range e {
						if rng.Float64() < 0.2 {
							e[i] = rng.Float64() - 0.5
						}
					}

					eng, err := New(Config{A: a, D: d, H: h, Workers: workers}, nil)
					if err != nil {
						t.Fatalf("n=%d k=%d: %v", n, k, err)
					}
					eng.SetExplicit(e)

					h2 := h.Mul(h)
					ref := make([]float64, n*k)
					refNext := make([]float64, n*k)
					for it := 0; it < iters; it++ {
						wantDelta := refStep(refNext, ref, e, a, h, h2, d, n, k, echo)
						ref, refNext = refNext, ref
						gotDelta := eng.Step()
						if math.Abs(gotDelta-wantDelta) > 1e-12*(1+math.Abs(wantDelta)) {
							t.Fatalf("n=%d k=%d echo=%v workers=%d iter %d: delta %g, want %g",
								n, k, echo, workers, it, gotDelta, wantDelta)
						}
					}
					got := eng.Beliefs()
					for i := range ref {
						if math.Abs(got[i]-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
							t.Fatalf("n=%d k=%d echo=%v workers=%d: beliefs[%d] = %g, want %g",
								n, k, echo, workers, i, got[i], ref[i])
						}
					}
					eng.Close()
				}
			}
		}
	}
}

// TestEngineEchoOverride checks the EchoH hook (FABP's c2 ≠ c1²).
func TestEngineEchoOverride(t *testing.T) {
	a := randomCSR(33, 4, 5)
	d := degrees(a)
	h := dense.NewFromRows([][]float64{{0.04}})
	echoH := dense.NewFromRows([][]float64{{0.009}}) // ≠ 0.04²
	eng, err := New(Config{A: a, D: d, H: h, EchoH: echoH}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	e := make([]float64, 33)
	e[0], e[16] = 0.1, -0.2
	eng.SetExplicit(e)
	eng.Step()
	eng.Step()

	// Reference: b ← e + h·(A·b) − echoH·d∘b.
	cur := make([]float64, 33)
	next := make([]float64, 33)
	for it := 0; it < 2; it++ {
		ab := a.MulVec(cur)
		for i := range cur {
			next[i] = e[i] + 0.04*ab[i] - 0.009*d[i]*cur[i]
		}
		cur, next = next, cur
	}
	for i, want := range cur {
		if math.Abs(eng.Beliefs()[i]-want) > 1e-15 {
			t.Fatalf("beliefs[%d] = %g, want %g", i, eng.Beliefs()[i], want)
		}
	}
}

// TestEngineApplyInto checks the bare operator against a manual
// reference (the spectral power-iteration path).
func TestEngineApplyInto(t *testing.T) {
	n, k := 41, 3
	a := randomCSR(n, 5, 11)
	h := randomCoupling(k, 2)
	d := degrees(a)
	for _, workers := range []int{1, 4} {
		eng, err := New(Config{A: a, D: d, H: h, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(9)
		src := make([]float64, n*k)
		for i := range src {
			src[i] = rng.Float64() - 0.5
		}
		dst := make([]float64, n*k)
		eng.ApplyInto(dst, src)

		want := make([]float64, n*k)
		refStep(want, src, nil, a, h, h.Mul(h), d, n, k, true)
		// refStep's delta compares against src; only the values matter here.
		for i := range want {
			if math.Abs(dst[i]-want[i]) > 1e-12 {
				t.Fatalf("workers=%d: dst[%d] = %g, want %g", workers, i, dst[i], want[i])
			}
		}
		// ApplyInto must not disturb the engine's iteration state.
		if got := eng.Beliefs(); got[0] != 0 {
			t.Fatalf("ApplyInto corrupted belief state: %g", got[0])
		}
		eng.Close()
	}
}

// TestEngineZeroAllocSteps asserts the serving guarantee: once warm, a
// Step allocates nothing, for the serial and the parallel engine alike.
func TestEngineZeroAllocSteps(t *testing.T) {
	a := randomCSR(301, 6, 21)
	h := randomCoupling(3, 4)
	e := make([]float64, 301*3)
	e[0] = 0.1
	for _, workers := range []int{1, 4} {
		eng, err := New(Config{A: a, D: degrees(a), H: h, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetExplicit(e)
		eng.Step() // warm up: spawns the worker pool on the first pass
		allocs := testing.AllocsPerRun(50, func() { eng.Step() })
		if allocs > 0 {
			t.Errorf("workers=%d: %v allocs per Step, want 0", workers, allocs)
		}
		eng.Close()
	}
}

// TestWorkspaceReuse checks that pooled workspaces are recycled and
// resized across differently-shaped problems.
func TestWorkspaceReuse(t *testing.T) {
	ws := GetWorkspace()
	a1 := randomCSR(50, 4, 1)
	eng, err := New(Config{A: a1, H: randomCoupling(3, 1)}, ws)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	eng.Close()
	// Reuse the same workspace for a larger problem and a generic k.
	a2 := randomCSR(80, 4, 2)
	eng2, err := New(Config{A: a2, D: degrees(a2), H: randomCoupling(4, 2)}, ws)
	if err != nil {
		t.Fatal(err)
	}
	eng2.Step()
	eng2.Close()
	ws.Release()
}

// TestEngineValidation covers the constructor's error paths.
func TestEngineValidation(t *testing.T) {
	a := randomCSR(10, 3, 1)
	h := randomCoupling(2, 1)
	cases := []Config{
		{A: nil, H: h},
		{A: a, H: nil},
		{A: a, H: dense.New(2, 3)},
		{A: a, H: h, D: make([]float64, 4)},
		{A: a, H: h, D: make([]float64, 10), EchoH: dense.New(3, 3)},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, nil); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestEngineDivergenceReportsInf checks the NaN→Inf mapping that keeps
// diverged runs reporting non-convergence (matching the seed solver).
func TestEngineDivergenceReportsInf(t *testing.T) {
	// A strongly amplifying iteration: big coupling, star graph.
	b := sparse.NewBuilder(3, 3)
	b.AddSym(0, 1, 100)
	b.AddSym(0, 2, 100)
	a := b.ToCSR()
	h := dense.NewFromRows([][]float64{{50, -50}, {-50, 50}})
	eng, err := New(Config{A: a, H: h}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	e := make([]float64, 6)
	e[0], e[1] = 1, -1
	eng.SetExplicit(e)
	var last float64
	for i := 0; i < 400; i++ {
		last = eng.Step()
		if math.IsInf(last, 1) {
			return // overflow surfaced as +Inf delta, as intended
		}
	}
	if !math.IsInf(last, 1) && last <= 1e300 {
		t.Fatalf("expected divergence to surface, delta %g", last)
	}
}

// TestEngineUseAfterClosePanics guards the workspace-pool safety
// contract: a closed engine may share its workspace with a newer
// engine, so any further use must panic loudly instead of silently
// corrupting the other engine's buffers.
func TestEngineUseAfterClosePanics(t *testing.T) {
	a := randomCSR(20, 3, 1)
	eng, err := New(Config{A: a, H: randomCoupling(2, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	eng.Close()
	for name, fn := range map[string]func(){
		"Step":      func() { eng.Step() },
		"Reset":     func() { eng.Reset() },
		"SetStart":  func() { eng.SetStart(make([]float64, 40)) },
		"ApplyInto": func() { eng.ApplyInto(make([]float64, 40), make([]float64, 40)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestEngineBlockedMatchesSingle checks the multi-block batch path:
// every block of a Blocks=B engine must evolve exactly as the same
// problem does in its own single engine. For k outside the unrolled
// fast paths both sides run the blocked kernel and match bitwise, and
// so do the width-12 batch blocks, which mirror the unrolled k=3 and
// k=2 paths' summation order; for unrolled k against the generic
// blocked kernel the summation order of the coupling multiply differs
// by ~1 ulp per round.
func TestEngineBlockedMatchesSingle(t *testing.T) {
	const iters = 6
	for _, tc := range []struct {
		k, blocks int
		tol       float64
	}{
		{4, 5, 0},     // generic path on both sides: bitwise
		{3, 5, 1e-13}, // unrolled single vs blocked: rounding only
		{3, 4, 0},     // 3×4 batch block vs unrolled k=3: bitwise
		{2, 6, 0},     // 2×6 batch block vs unrolled k=2: bitwise
	} {
		blocks := tc.blocks
		n := 97
		a := randomCSR(n, 6, 7)
		h := randomCoupling(tc.k, 9)
		d := degrees(a)
		for _, echo := range []bool{false, true} {
			var dd []float64
			if echo {
				dd = d
			}
			// Per-block explicit beliefs and reference engines.
			rng := xrand.New(31)
			es := make([][]float64, blocks)
			refs := make([][]float64, blocks)
			for b := range es {
				es[b] = make([]float64, n*tc.k)
				for i := range es[b] {
					if rng.Float64() < 0.3 {
						es[b][i] = rng.Float64() - 0.5
					}
				}
				single, err := New(Config{A: a, D: dd, H: h}, nil)
				if err != nil {
					t.Fatal(err)
				}
				single.SetExplicit(es[b])
				for it := 0; it < iters; it++ {
					single.Step()
				}
				refs[b] = append([]float64(nil), single.Beliefs()...)
				single.Close()
			}
			// One blocked engine with the interleaved explicit beliefs.
			batched, err := New(Config{A: a, D: dd, H: h, Blocks: blocks}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if batched.Width() != blocks*tc.k {
				t.Fatalf("width = %d", batched.Width())
			}
			ein := make([]float64, n*blocks*tc.k)
			for b := range es {
				for i := 0; i < n; i++ {
					copy(ein[(i*blocks+b)*tc.k:(i*blocks+b)*tc.k+tc.k], es[b][i*tc.k:i*tc.k+tc.k])
				}
			}
			batched.SetExplicit(ein)
			for it := 0; it < iters; it++ {
				batched.Step()
			}
			state := batched.Beliefs()
			for b := range es {
				for i := 0; i < n; i++ {
					for c := 0; c < tc.k; c++ {
						got := state[(i*blocks+b)*tc.k+c]
						want := refs[b][i*tc.k+c]
						if math.Abs(got-want) > tc.tol {
							t.Fatalf("k=%d echo=%v block %d node %d class %d: %g, want %g",
								tc.k, echo, b, i, c, got, want)
						}
					}
				}
			}
			batched.Close()
		}
	}
}

// TestEngineBlockedParallelMatchesSerial checks that the worker pool
// produces identical results on a blocked engine (spans are row-based,
// independent of width).
func TestEngineBlockedParallelMatchesSerial(t *testing.T) {
	n, k, blocks := 257, 3, 4
	a := randomCSR(n, 5, 3)
	h := randomCoupling(k, 5)
	e := make([]float64, n*blocks*k)
	rng := xrand.New(8)
	for i := range e {
		e[i] = rng.Float64() - 0.5
	}
	var want []float64
	for _, workers := range []int{1, 4} {
		eng, err := New(Config{A: a, D: degrees(a), H: h, Blocks: blocks, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetExplicit(e)
		for it := 0; it < 5; it++ {
			eng.Step()
		}
		if workers == 1 {
			want = append([]float64(nil), eng.Beliefs()...)
		} else {
			for i, v := range eng.Beliefs() {
				if v != want[i] {
					t.Fatalf("workers=%d: state[%d] = %g, want %g", workers, i, v, want[i])
				}
			}
		}
		eng.Close()
	}
}

// TestRunContext covers the cancellation hooks: a pre-cancelled
// context runs zero rounds, a context cancelled mid-run aborts within
// one round, and a background context matches Run.
func TestRunContext(t *testing.T) {
	a := randomCSR(64, 4, 13)
	h := randomCoupling(2, 2)
	e := make([]float64, 64*2)
	e[0] = 0.1
	eng, err := New(Config{A: a, D: degrees(a), H: h}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.SetExplicit(e)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	iters, _, converged, err := eng.RunContext(ctx, 100, -1, nil)
	if iters != 0 || converged || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: iters=%d converged=%v err=%v", iters, converged, err)
	}

	// Cancel from the iteration callback: the run must stop on the
	// next round boundary.
	ctx2, cancel2 := context.WithCancel(context.Background())
	eng.Reset()
	stopAt := 3
	iters, _, _, err = eng.RunContext(ctx2, 100, -1, func(it int, _ float64) {
		if it == stopAt {
			cancel2()
		}
	})
	if iters != stopAt || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: iters=%d err=%v", iters, err)
	}

	eng.Reset()
	iters, _, _, err = eng.RunContext(context.Background(), 7, -1, nil)
	if iters != 7 || err != nil {
		t.Fatalf("background ctx: iters=%d err=%v", iters, err)
	}
}

// TestCompactLayoutParallel checks the worker-pool pass against the
// serial engine, bitwise.
func TestCompactLayoutParallel(t *testing.T) {
	a := randomCSR(500, 8, 13)
	d := degrees(a)
	h := randomCoupling(3, 9)
	e := make([]float64, a.Rows()*3)
	for i := 0; i < len(e); i += 7 {
		e[i] = 0.04
	}
	serial, err := New(Config{A: a, D: d, H: h}, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(Config{A: a, D: d, H: h, Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	defer par.Close()
	serial.SetExplicit(e)
	par.SetExplicit(e)
	for round := 0; round < 6; round++ {
		ds := serial.Step()
		dp := par.Step()
		if ds != dp {
			t.Fatalf("round %d: delta %g vs %g", round, ds, dp)
		}
		bs, bp := serial.Beliefs(), par.Beliefs()
		for i := range bs {
			if bs[i] != bp[i] {
				t.Fatalf("round %d: beliefs differ at %d", round, i)
			}
		}
	}
}

// TestRebindSpanPool rebinds a span-pool engine whose workers already
// ran to a committed epoch: its next solve must equal a fresh serial
// engine's on that epoch bitwise, and a table of another size or degree
// presence must be refused.
func TestRebindSpanPool(t *testing.T) {
	const n, k, rounds = 500, 3, 6
	a := randomCSR(n, 8, 17)
	epochA, err := sparse.NewRowBlocks(a, degrees(a))
	if err != nil {
		t.Fatal(err)
	}
	h := randomCoupling(k, 5)
	e := make([]float64, n*k)
	for i := 0; i < len(e); i += 5 {
		e[i] = 0.03
	}
	solve := func(eng *Engine) ([]float64, float64) {
		eng.Reset()
		eng.SetExplicit(e)
		_, delta, _ := eng.Run(rounds, -1, nil)
		return append([]float64(nil), eng.Beliefs()...), delta
	}

	eng, err := New(Config{Rows: epochA, H: h, Workers: 3, SymmetricA: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	onA, _ := solve(eng)
	if !eng.started {
		t.Fatal("the span pool did not start on epoch A")
	}

	// Epoch B: new edges in the first, an interior and the last block,
	// one edge removed and one reweighted.
	cols, _ := epochA.RowViewCompact(200)
	edits := []sparse.Edit{
		{Row: 1, Col: 300, W: 1}, {Row: 300, Col: 1, W: 1},
		{Row: 130, Col: 499, W: 2}, {Row: 499, Col: 130, W: 2},
		{Row: 200, Col: int(cols[0]), Remove: true}, {Row: int(cols[0]), Col: 200, Remove: true},
		{Row: 200, Col: int(cols[1]), W: 3}, {Row: int(cols[1]), Col: 200, W: 3},
	}
	epochB, _ := epochA.Commit(edits, nil)
	if err := eng.Rebind(epochB); err != nil {
		t.Fatal(err)
	}
	got, gotDelta := solve(eng)
	fresh, err := New(Config{Rows: epochB, H: h, SymmetricA: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, wantDelta := solve(fresh)
	if gotDelta != wantDelta {
		t.Fatalf("rebound delta %v, fresh serial %v", gotDelta, wantDelta)
	}
	moved := false
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("belief[%d] = %v after Rebind, fresh serial engine on epoch B %v (bitwise)", i, got[i], want[i])
		}
		moved = moved || got[i] != onA[i]
	}
	if !moved {
		t.Fatal("epoch B's solve equals epoch A's: the edits changed nothing")
	}

	other := randomCSR(n+1, 8, 17)
	wider, err := sparse.NewRowBlocks(other, degrees(other))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Rebind(wider); !errors.Is(err, errs.ErrDimensionMismatch) {
		t.Errorf("Rebind to %d rows: %v, want ErrDimensionMismatch", n+1, err)
	}
	noDeg, err := sparse.NewRowBlocks(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Rebind(noDeg); !errors.Is(err, errs.ErrInvalidInput) {
		t.Errorf("Rebind to a table without degrees: %v, want ErrInvalidInput", err)
	}
}

// TestSparseRoundBitwiseIdentical pins the push-based sparse round
// (SymmetricA, serial) against the plain pull round:
// starting from sparse explicit beliefs, every iterate across several
// rounds must be bitwise identical, for the k=3 fast epilogue, the k=1
// scalar path, generic k, and a batched width.
func TestSparseRoundBitwiseIdentical(t *testing.T) {
	for _, tc := range []struct {
		k, blocks int
		echo      bool
	}{
		{3, 1, true}, {3, 1, false}, {1, 1, true}, {2, 1, true},
		{4, 1, true}, {5, 1, true}, {3, 4, true}, {2, 6, true},
	} {
		a := randomCSR(400, 7, 21)
		var d []float64
		if tc.echo {
			d = degrees(a)
		}
		h := randomCoupling(tc.k, 3)
		wd := tc.blocks * tc.k
		e := make([]float64, a.Rows()*wd)
		for i := 0; i < len(e); i += 23 * wd { // sparse explicit rows
			e[i] = 0.07
		}
		pull, err := New(Config{A: a, D: d, H: h, Blocks: tc.blocks}, nil)
		if err != nil {
			t.Fatal(err)
		}
		push, err := New(Config{A: a, D: d, H: h, Blocks: tc.blocks, SymmetricA: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pull.SetExplicit(e)
		push.SetExplicit(e)
		for round := 0; round < 4; round++ {
			dl := pull.Step()
			dp := push.Step()
			if dl != dp {
				t.Fatalf("k=%d blocks=%d echo=%v round %d: delta %g vs %g", tc.k, tc.blocks, tc.echo, round, dl, dp)
			}
			bl, bp := pull.Beliefs(), push.Beliefs()
			for i := range bl {
				if bl[i] != bp[i] {
					t.Fatalf("k=%d blocks=%d echo=%v round %d: beliefs differ at %d: %g vs %g",
						tc.k, tc.blocks, tc.echo, round, i, bl[i], bp[i])
				}
			}
		}
		pull.Close()
		push.Close()
	}
}

// TestCompactBatchKernelsLargeGraph exercises the width-12 batch blocks
// above compactBatchMinNodes, where round 2 runs as the batched push
// round: every block of the batched engine must stay bitwise identical
// to the same problem in its own single engine.
func TestCompactBatchKernelsLargeGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a graph above compactBatchMinNodes")
	}
	for _, tc := range []struct{ k, blocks int }{{3, 4}, {2, 6}} {
		a := randomCSR(compactBatchMinNodes+10, 4, 31)
		d := degrees(a)
		h := randomCoupling(tc.k, 5)
		n, k, wd := a.Rows(), tc.k, tc.k*tc.blocks
		e := make([]float64, n*wd)
		for i := 0; i < len(e); i += 37 {
			e[i] = 0.03
		}
		// SymmetricA exercises the batched push-based sparse round,
		// which only dispatches above the size gate.
		batched, err := New(Config{A: a, D: d, H: h, Blocks: tc.blocks, SymmetricA: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		batched.SetExplicit(e)
		singles := make([]*Engine, tc.blocks)
		for b := range singles {
			eb := make([]float64, n*k)
			for i := 0; i < n; i++ {
				copy(eb[i*k:i*k+k], e[i*wd+b*k:i*wd+b*k+k])
			}
			if singles[b], err = New(Config{A: a, D: d, H: h, SymmetricA: true}, nil); err != nil {
				t.Fatal(err)
			}
			singles[b].SetExplicit(eb)
		}
		for round := 0; round < 3; round++ {
			batched.Step()
			state := batched.Beliefs()
			for b, single := range singles {
				single.Step()
				got := single.Beliefs()
				for i := 0; i < n; i++ {
					for c := 0; c < k; c++ {
						if v := state[i*wd+b*k+c]; v != got[i*k+c] {
							t.Fatalf("k=%d blocks=%d round %d: block %d node %d class %d: %g, want %g",
								tc.k, tc.blocks, round, b, i, c, v, got[i*k+c])
						}
					}
				}
			}
		}
		batched.Close()
		for _, single := range singles {
			single.Close()
		}
	}
}
