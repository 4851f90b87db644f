// Benchmarks for the durable serving plane: recovering a prepared
// solver from its on-disk snapshot (map + verify + adopt) against the
// full re-Prepare it replaces (reordering, the εH search), the
// write-ahead-log append overhead per fsync policy, and the live heap a
// durable serving stack keeps after set-up.
// `make bench-durable` archives these into BENCH_results.json; the
// acceptance bar is snapshot-load cold start ≥ 5× faster than
// re-Prepare on the large Kronecker regime.
package lsbp_test

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/serve"
)

// BenchmarkColdStartOpenVsPrepare measures a serving cold start both
// ways on the ≥100k-node Kronecker graph: core.Open mapping and
// validating the checksummed snapshot, versus core.Prepare redoing
// the layout optimization and the auto-εH spectral search from the
// raw graph. Both sides end with a Solver ready to serve (and are
// closed inside the loop, so the mapping lifecycle is included).
func BenchmarkColdStartOpenVsPrepare(b *testing.B) {
	power := reorderBenchPower()
	g := gen.Kronecker(power)
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 3})
	g.Adjacency()
	g.WeightedDegrees()
	p := &core.Problem{Graph: g, Explicit: e, Ho: coupling.Fig6bResidual(), EpsilonH: 0.001}
	opts := []core.Option{core.WithAutoEpsilonH(), core.WithMaxIter(200), core.WithTol(1e-9)}

	dir := b.TempDir()
	s, err := core.Prepare(p, core.MethodLinBP,
		append([]core.Option{core.WithDurability(dir, core.DurabilityPolicy{Sync: core.SyncAlways})}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	wantEps := s.Stats().EpsilonH
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run(fmt.Sprintf("open/power%d_nodes%d", power, g.N()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := core.Open(dir, core.WithMaxIter(200), core.WithTol(1e-9))
			if err != nil {
				b.Fatal(err)
			}
			if got := r.Stats().EpsilonH; got != wantEps {
				b.Fatalf("recovered eps_H %g, want %g", got, wantEps)
			}
			r.Close()
		}
	})
	b.Run(fmt.Sprintf("prepare/power%d_nodes%d", power, g.N()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := core.Prepare(p, core.MethodLinBP, opts...)
			if err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
	})

	// Sanity outside the timed loops: the recovered solver serves the
	// same fixpoint (difftest pins this to 1e-12; here just run it).
	r, err := core.Open(dir, core.WithMaxIter(200), core.WithTol(1e-9))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Update(context.Background(), core.Update{}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeStackLiveHeap reports what a serving stack keeps
// resident: the live heap, after two collections, of the stack the
// serving benchmark brings up (durable Prepare with the auto schedule,
// serve.New, the first Update{}) above the generated graph and labels
// it was built from. Nothing uses the problem after Prepare, as in a
// server, so only what the solver and the front end retain counts.
func BenchmarkServeStackLiveHeap(b *testing.B) {
	power := reorderBenchPower()
	g := gen.Kronecker(power)
	e, _ := beliefs.Seed(g.N(), 3, beliefs.SeedConfig{Fraction: 0.05, Seed: 7})
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	var above uint64
	for i := 0; i < b.N; i++ {
		base := live()
		p := &core.Problem{Graph: g.Clone(), Explicit: e.Clone(), Ho: coupling.Fig6bResidual(), EpsilonH: 0.01497919}
		s, err := core.Prepare(p, core.MethodLinBP, core.WithTol(1e-12), core.WithMaxIter(200),
			core.WithSchedule(core.ScheduleAuto), core.WithDurability(b.TempDir(), core.DurabilityPolicy{Sync: core.SyncAlways}))
		if err != nil {
			b.Fatal(err)
		}
		f := serve.New(s, serve.Config{})
		if _, err := f.Update(context.Background(), core.Update{}); err != nil {
			b.Fatal(err)
		}
		above = live() - base
		f.Close()
		s.Close()
	}
	b.ReportMetric(float64(above)/1e6, "live-MB")
}

// BenchmarkWALAppend isolates the per-update durability overhead: one
// representative record (three edge inserts, one delete, one relabel
// row) appended under each fsync policy. The "always" row is the
// price of losing nothing; "interval16" amortizes it 16×; "never"
// is the raw frame encode + page-cache write.
func BenchmarkWALAppend(b *testing.B) {
	rec := &durable.Record{
		Seq: 1, K: 3,
		Adds: []durable.Edge{{S: 1, T: 2, W: 1}, {S: 3, T: 4, W: 0.5}, {S: 5, T: 6, W: 2}},
		Dels: []durable.Pair{{S: 7, T: 8}},
		Rows: []durable.BeliefRow{{Node: 9, Row: []float64{0.1, -0.05, -0.05}}},
	}
	for _, pol := range []struct {
		name string
		p    durable.Policy
	}{
		{"always", durable.Policy{Sync: durable.SyncAlways}},
		{"interval16", durable.Policy{Sync: durable.SyncInterval, Interval: 16}},
		{"never", durable.Policy{Sync: durable.SyncNever}},
	} {
		b.Run(pol.name, func(b *testing.B) {
			w, err := durable.OpenWAL(durable.OS, b.TempDir(), pol.p)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Seq = uint64(i + 1)
				if err := w.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
