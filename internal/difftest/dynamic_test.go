package difftest

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestDynamicEquivalenceMatrix is the dynamic differential suite of the
// acceptance matrix: every method × serving variant × update policy
// replays the same deterministic insert/delete/relabel stream and must
// match a fresh Prepare on the evolving graph after every batch.
func TestDynamicEquivalenceMatrix(t *testing.T) {
	RunDynamicMatrix(t, 48, 96, 4, 5)
}

// TestDynamicAutoEpsilonEquivalence is the compaction εH-re-derivation
// differential: with WithAutoEpsilonH and a forced compaction on every
// topology update, each epoch re-derives εH on the merged graph exactly
// as a fresh Prepare would, so the dynamic solver must keep matching a
// fresh Prepare (also under auto εH) after every batch. The residual
// variant runs the same stream through the seeded re-solve path, where
// an εH change must invalidate the localized warm seed.
func TestDynamicAutoEpsilonEquivalence(t *testing.T) {
	for _, m := range []core.Method{core.MethodLinBP, core.MethodLinBPStar, core.MethodFABP} {
		k := 3
		if m == core.MethodFABP {
			k = 2
		}
		p, err := Problem(48, 96, k, 21)
		if err != nil {
			t.Fatal(err)
		}
		stream := DynamicStream(p, 4, 22)
		for _, v := range []Variant{
			{Name: "autoeps", Opts: []core.Option{core.WithAutoEpsilonH()}},
			{Name: "autoeps/residual", Opts: []core.Option{core.WithAutoEpsilonH(), core.WithSchedule(core.ScheduleResidual)}, Tol: ResidualScheduleTol},
		} {
			t.Run(m.String()+"/"+v.Name, func(t *testing.T) {
				RunDynamic(t, p, m, v, core.UpdatePolicy{CompactionRatio: 1e-12}, stream, DefaultTol)
			})
		}
	}
}

// TestCompactionExposesRederivedEpsilonH pins the Stats surface of the
// εH re-derivation: after an insert-heavy update stream crosses the
// compaction threshold, Stats().EpsilonH reports the new epoch's εH —
// the value a fresh auto-εH Prepare on the merged graph derives — not
// the stale prepare-time scale.
func TestCompactionExposesRederivedEpsilonH(t *testing.T) {
	p, err := Problem(48, 72, 3, 33)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Prepare(p, core.MethodLinBP, core.WithAutoEpsilonH(),
		core.WithUpdatePolicy(core.UpdatePolicy{CompactionRatio: 1e-12}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Stats().EpsilonH
	mirror := p.Graph.Clone()
	ctx := context.Background()
	// Densify: enough inserts to move the spectral scale measurably.
	var u core.Update
	for i := 0; i < 48; i++ {
		e := graph.Edge{S: i, T: (i*7 + 3) % 48, W: 1}
		u.AddEdges = append(u.AddEdges, e)
		mirror.AddEdge(e.S, e.T, e.W)
	}
	if _, err := s.Update(ctx, u); err != nil {
		t.Fatalf("Update: %v", err)
	}
	after := s.Stats().EpsilonH
	if after == before {
		t.Fatalf("compaction did not re-derive εH: still %g", before)
	}
	fp := &core.Problem{Graph: mirror, Explicit: p.Explicit, Ho: p.Ho, EpsilonH: p.EpsilonH}
	fs, err := core.Prepare(fp, core.MethodLinBP, core.WithAutoEpsilonH())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if want := fs.Stats().EpsilonH; math.Abs(after-want) > 1e-12 {
		t.Fatalf("re-derived εH = %g, fresh Prepare derives %g", after, want)
	}
}

// TestDynamicEquivalenceLargerKernel gives the kernel methods a second,
// denser instance under the default options.
func TestDynamicEquivalenceLargerKernel(t *testing.T) {
	p, err := Problem(120, 300, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	stream := DynamicStream(p, 5, 78)
	for _, m := range []core.Method{core.MethodLinBP, core.MethodLinBPStar} {
		v := Variant{Name: "defaults", Opts: nil}
		t.Run(m.String(), func(t *testing.T) {
			RunDynamic(t, p, m, v, core.UpdatePolicy{CompactionRatio: 0.02}, stream, DefaultTol)
		})
	}
}
