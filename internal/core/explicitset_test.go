package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/dense"
	"repro/internal/durable"
)

// checkExplicitSet compares the solver's explicit set with ref, the
// dense caller-order reference kept beside it: the set holds exactly
// ref's non-zero rows, ascending by layout row, each under its caller
// row with its w layout values bitwise; the caller-order matrix rebuilt
// from it equals ref bitwise; and no field of the solver or its kernel
// plane holds an n-length explicit array.
func checkExplicitSet(t *testing.T, s Solver, ref *beliefs.Residual) {
	t.Helper()
	d := s.(*dynSolver)
	d.mu.Lock()
	defer d.mu.Unlock()
	rm := d.cur.Load().rm
	if d.exp.Width() != rm.w {
		t.Fatalf("set width %d, layout width %d", d.exp.Width(), rm.w)
	}
	if got, want := d.exp.Len(), len(ref.ExplicitNodes()); got != want {
		t.Fatalf("set holds %d rows, reference %d non-zero rows", got, want)
	}
	for p := 0; p < d.exp.Len(); p++ {
		v := int(d.exp.ID(p))
		if int(d.exp.Row(p)) != rm.at(v) || (p > 0 && d.exp.Row(p) <= d.exp.Row(p-1)) {
			t.Fatalf("set row %d: layout row %d for caller row %d, want %d ascending", p, d.exp.Row(p), v, rm.at(v))
		}
		for c, x := range d.exp.Values(p) {
			if math.Float64bits(x) != math.Float64bits(ref.Row(v)[c]) {
				t.Fatalf("caller row %d value %d = %v, reference %v", v, c, x, ref.Row(v)[c])
			}
		}
	}
	got, want := d.callerExplicit().Matrix().Data(), ref.Matrix().Data()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("rebuilt caller-order entry %d = %v, reference %v", i, got[i], want[i])
		}
	}
	noExplicitArrays(t, reflect.ValueOf(d).Elem(), d.n)
	if d.kern != nil {
		noExplicitArrays(t, reflect.ValueOf(d.kern).Elem(), d.n)
	}
}

// noExplicitArrays fails if a field of the struct v holds a float64
// array of n or more entries (a dense n×k or n×w belief copy), a belief
// matrix, or a touched-row scratch of n entries.
func noExplicitArrays(t *testing.T, v reflect.Value, n int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Type() {
		case reflect.TypeOf([]float64(nil)), reflect.TypeOf([]int32(nil)):
			if f.Cap() >= n {
				t.Errorf("field %s holds %d entries, n = %d", name, f.Cap(), n)
			}
		case reflect.TypeOf((*beliefs.Residual)(nil)):
			t.Errorf("field %s is a belief matrix", name)
		case reflect.TypeOf((*dense.Matrix)(nil)):
			if !f.IsNil() && f.Elem().FieldByName("rows").Int() >= int64(n) {
				t.Errorf("field %s is a matrix of n rows", name)
			}
		}
	}
}

// TestExplicitSetLifecycle walks every method, under the natural order
// and RCM, through Prepare, Update{}, relabels that add and replace
// explicit rows, a forced compaction (with its checkpoint), a relabel
// logged after it, and OpenFS, checking the explicit set against a
// dense reference after each step.
func TestExplicitSetLifecycle(t *testing.T) {
	for _, m := range []Method{MethodLinBP, MethodLinBPStar, MethodFABP, MethodBP, MethodSBP} {
		for _, ord := range []Reordering{ReorderNone, ReorderRCM} {
			t.Run(fmt.Sprintf("%v/%v", m, ord), func(t *testing.T) {
				k := 3
				if m == MethodFABP {
					k = 2
				}
				p := randomProblem(t, 70, 150, k, 0.05, 29)
				n := p.Graph.N()
				ref := p.Explicit.Clone()
				fs := durable.NewMemFS()
				opts := append([]Option{
					WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways}), WithReordering(ord),
					WithUpdatePolicy(UpdatePolicy{CompactionRatio: 1e-12}),
				}, durTight...)
				s, err := Prepare(p, m, opts...)
				if err != nil {
					t.Fatal(err)
				}
				checkExplicitSet(t, s, ref)
				ctx := context.Background()
				update := func(u Update) {
					t.Helper()
					if _, err := s.Update(ctx, u); err != nil && !errors.Is(err, ErrNotConverged) {
						t.Fatal(err)
					}
					if u.SetExplicit != nil {
						for _, v := range u.SetExplicit.ExplicitNodes() {
							ref.Set(v, u.SetExplicit.Row(v))
						}
					}
					checkExplicitSet(t, s, ref)
				}
				update(Update{})
				explicit := ref.ExplicitNodes()
				// New rows before, between and after the explicit ones, and
				// replacements of explicit rows.
				update(Update{SetExplicit: labelMatrix(n, k, map[int]int{0: 1, n / 2: 0, n - 1: 1})})
				update(Update{SetExplicit: labelMatrix(n, k, map[int]int{explicit[0]: 0, explicit[len(explicit)-1]: 1, 3: 0})})
				update(Update{AddEdges: absentEdges(p.Graph, 2, 5)})
				if st := s.Stats(); st.Rebuilds != 1 {
					t.Fatalf("Rebuilds = %d, want 1", st.Rebuilds)
				}
				update(Update{SetExplicit: labelMatrix(n, k, map[int]int{explicit[1]: 1, 7: 0})})
				if m == MethodFABP {
					// A row whose class-0 residual is zero clears the node's
					// w = 1 layout row: it leaves the set.
					u := beliefs.New(n, k)
					u.Set(explicit[2], []float64{0, 1e-10})
					if _, err := s.Update(ctx, Update{SetExplicit: u}); err != nil {
						t.Fatal(err)
					}
					ref.Set(explicit[2], []float64{0, 0}) // the set keeps (b, −b) rows
					checkExplicitSet(t, s, ref)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				r, err := OpenFS(fs, "st", durTight...)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				checkExplicitSet(t, r, ref)
			})
		}
	}
}

// TestReplayAllocsIndependentOfRecords: WAL replay merges a record's
// belief rows straight into the explicit set, so the bytes OpenFS
// allocates do not grow by an n×k matrix per relabel record (472 KB at
// power 9 with k = 3).
func TestReplayAllocsIndependentOfRecords(t *testing.T) {
	p := kronProblem(t, 9, 3)
	n := p.Graph.N()
	openBytes := func(records int) uint64 {
		fs := durable.NewMemFS()
		s, err := Prepare(p, MethodLinBP, WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncNever}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			labels := map[int]int{}
			for j := 0; j < 16; j++ {
				labels[(i*16+j)*7919%n] = j % 3
			}
			if _, err := s.Update(context.Background(), Update{SetExplicit: labelMatrix(n, 3, labels)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := OpenFS(fs, "st")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Stats().Updates; got != int64(records) {
			t.Fatalf("recovered %d updates, want %d", got, records)
		}
		r.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	one, thirty := openBytes(1), openBytes(30)
	t.Logf("OpenFS allocates %d bytes replaying 1 record, %d replaying 30", one, thirty)
	if thirty > one && thirty-one > 2<<20 {
		t.Fatalf("OpenFS allocates %.1f MB replaying 30 relabel records, %.1f MB replaying 1", float64(thirty)/1e6, float64(one)/1e6)
	}
}

// TestSBPUpdateAllocatesResultOnly: an Update's BP or SBP re-solve
// scatters the explicit set straight into the pooled state's
// layout-order rows, so a belief-only SBP Update allocates its result
// (the n×k beliefs and the n geodesics) and a few small buffers — no
// caller-order n×k request, in the natural order or a permuted layout.
func TestSBPUpdateAllocatesResultOnly(t *testing.T) {
	p := kronProblem(t, 8, 3)
	n := p.Graph.N()
	var labels [2]*beliefs.Residual
	for c := range labels {
		m := map[int]int{}
		for j := 0; j < 16; j++ {
			m[j*7919%n] = c
		}
		labels[c] = labelMatrix(n, 3, m)
	}
	result := uint64(n*3*8 + n*8)
	for _, r := range []Reordering{ReorderNone, ReorderRCM} {
		s, err := Prepare(p, MethodSBP, WithReordering(r))
		if err != nil {
			t.Fatal(err)
		}
		update := func(u Update) {
			if _, err := s.Update(context.Background(), u); err != nil {
				t.Fatal(err)
			}
		}
		// The first relabel changes the explicit node set; the second
		// warms the pooled state on the settled one.
		update(Update{SetExplicit: labels[0]})
		update(Update{SetExplicit: labels[1]})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		update(Update{SetExplicit: labels[0]})
		runtime.ReadMemStats(&after)
		s.Close()
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%v: a belief-only SBP Update allocates %d bytes, its result %d", r, got, result)
		if got > result+32<<10 {
			t.Errorf("%v: a belief-only SBP Update allocates %d bytes, more than its result's %d and 32 KiB", r, got, result)
		}
	}
}
