package difftest

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/errs"
)

// TestDifferentialMatrix is the canonical equivalence suite: every
// method × k ∈ {1,2,3,5} on two deterministic random instances, each
// solved under the full configuration cross product (ordering ×
// partitions × workers for the kernel-backed methods, ordering for
// BP/SBP) and pinned to the reference within 1e-12.
func TestDifferentialMatrix(t *testing.T) {
	RunMatrix(t, 350, 800, 7, core.WithMaxIter(60))
}

// TestDifferentialMatrixFixedRounds re-runs the matrix under the
// paper's timing convention (fixed rounds, no early stopping): the
// iterates after exactly 5 rounds must also agree, which catches
// divergence the converged fixpoint would mask.
func TestDifferentialMatrixFixedRounds(t *testing.T) {
	RunMatrix(t, 250, 600, 11, core.WithMaxIter(5), core.WithTol(-1))
}

// TestVariantsCoverAxes pins the harness itself: the kernel-backed
// variant set must span all three orderings, the partition counts, and
// both worker settings.
func TestVariantsCoverAxes(t *testing.T) {
	vs := Variants(core.MethodLinBP)
	if len(vs) != 3*3*2 {
		t.Fatalf("kernel variant count = %d, want %d", len(vs), 3*3*2)
	}
	seen := map[string]bool{}
	for _, v := range vs {
		seen[v.Name] = true
	}
	for _, name := range []string{
		"order=natural/parts=0/workers=0",
		"order=degree/parts=3/workers=4",
		"order=rcm/parts=1/workers=0",
	} {
		if !seen[name] {
			t.Fatalf("variant %q missing", name)
		}
	}
	if got := len(Variants(core.MethodBP)); got != 3 {
		t.Fatalf("BP variant count = %d, want 3 (ordering axis only)", got)
	}
}

// TestDynamicVariantsCoverPlanes pins the dynamic half of the harness:
// the kernel-backed set spans every ordering × plane × schedule, and at
// the dynamic suite's size each plane variant prepares onto the data
// plane its name claims — one or three partition blocks, the
// unpartitioned plane for auto, and a four-worker span pool — and keeps
// that plane across a forced-compaction Update.
func TestDynamicVariantsCoverPlanes(t *testing.T) {
	vs := DynamicVariants(core.MethodLinBP)
	if len(vs) != 3*4*3 {
		t.Fatalf("dynamic kernel variant count = %d, want %d", len(vs), 3*4*3)
	}
	if got := len(DynamicVariants(core.MethodSBP)); got != 3 {
		t.Fatalf("SBP dynamic variant count = %d, want 3 (ordering axis only)", got)
	}
	p, err := Problem(48, 96, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	stream := DynamicStream(p, 1, 12)
	want := map[string]struct{ parts, workers int }{
		"order=rcm/parts=1/schedule=rounds":    {1, 0},
		"order=rcm/parts=auto/schedule=rounds": {0, 0},
		"order=rcm/parts=3/schedule=rounds":    {3, 0},
		"order=rcm/workers=4/schedule=rounds":  {0, 4},
	}
	for _, v := range vs {
		w, ok := want[v.Name]
		if !ok {
			continue
		}
		delete(want, v.Name)
		opts := append(append([]core.Option{}, v.Opts...),
			core.WithUpdatePolicy(core.UpdatePolicy{CompactionRatio: 1e-12}))
		s, err := core.Prepare(p, core.MethodLinBP, opts...)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", v.Name, err)
		}
		for phase := 0; phase < 2; phase++ {
			st := s.Stats()
			if st.Partitions != w.parts || st.Workers != w.workers {
				t.Errorf("%s (phase %d): partitions=%d workers=%d, want %d, %d",
					v.Name, phase, st.Partitions, st.Workers, w.parts, w.workers)
			}
			if phase == 0 {
				if _, err := s.Update(context.Background(), stream[0].ToUpdate(p.Graph.N(), p.K())); err != nil && !errors.Is(err, errs.ErrNotConverged) {
					t.Fatalf("%s: Update: %v", v.Name, err)
				}
				if s.Stats().Rebuilds == 0 {
					t.Fatalf("%s: the forced-compaction Update did not rebuild", v.Name)
				}
			}
		}
		s.Close()
	}
	for name := range want {
		t.Errorf("dynamic variant %q missing", name)
	}
}

// TestProblemRejectsInvalid guards the instance builder: every k ≥ 2
// axis value builds a valid instance, and k = 1 is routed to the
// kernel-level check instead.
func TestProblemRejectsInvalid(t *testing.T) {
	for _, k := range Ks {
		p, err := Problem(120, 260, k, 5)
		if k == 1 {
			if err == nil {
				t.Fatal("k=1 must be rejected by the Problem surface")
			}
			continue
		}
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.Graph.N() != 120 || p.K() != k {
			t.Fatalf("k=%d: got n=%d k=%d", k, p.Graph.N(), p.K())
		}
	}
}
