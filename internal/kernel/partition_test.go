package kernel

import (
	"testing"

	"repro/internal/order"
)

// TestPartitionedMatchesSerial is the partitioned plane's core
// contract: every class count, echo setting, and partition count must
// be bitwise identical to the serial engine — the partition workers run
// the same row kernels over the same global state, merely split by row
// block.
func TestPartitionedMatchesSerial(t *testing.T) {
	n := 157 // odd, not divisible by the partition counts
	a := randomCSR(n, 8, 5)
	for _, k := range []int{1, 2, 3, 5, 4} { // 4 exercises the generic kernel
		h := randomCoupling(k, uint64(k))
		e := make([]float64, n*k)
		rngFill(e, uint64(100+k))
		for _, echo := range []bool{false, true} {
			var d []float64
			if echo {
				d = degrees(a)
			}
			ref, err := New(Config{A: a, D: d, H: h, SymmetricA: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref.SetExplicit(e)
			refIters, refDelta, _ := ref.Run(6, -1, nil)
			want := append([]float64(nil), ref.Beliefs()...)
			ref.Close()

			for _, parts := range []int{1, 2, 3, 7} {
				p := order.PartitionRows(a, parts)
				eng, err := New(Config{A: a, D: d, H: h, SymmetricA: true, PartitionStarts: p.Starts}, nil)
				if err != nil {
					t.Fatal(err)
				}
				eng.SetExplicit(e)
				iters, delta, _ := eng.Run(6, -1, nil)
				if iters != refIters || delta != refDelta {
					t.Fatalf("k=%d echo=%v parts=%d: iters/delta %d/%v, want %d/%v",
						k, echo, parts, iters, delta, refIters, refDelta)
				}
				for i, v := range eng.Beliefs() {
					if v != want[i] {
						t.Fatalf("k=%d echo=%v parts=%d: belief[%d] = %v, want %v (bitwise)",
							k, echo, parts, i, v, want[i])
					}
				}
				eng.Close()
			}
		}
	}
}

// TestPartitionedBatchMatchesSerial extends the bitwise contract to the
// fused multi-block batch kernels (k=3 × 4 blocks, width 12).
func TestPartitionedBatchMatchesSerial(t *testing.T) {
	n := 203
	const k, blocks = 3, 4
	a := randomCSR(n, 6, 9)
	h := randomCoupling(k, 3)
	d := degrees(a)
	e := make([]float64, n*k*blocks)
	rngFill(e, 77)

	ref, err := New(Config{A: a, D: d, H: h, Blocks: blocks, SymmetricA: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetExplicit(e)
	ref.Run(5, -1, nil)
	want := append([]float64(nil), ref.Beliefs()...)
	ref.Close()

	p := order.PartitionRows(a, 3)
	eng, err := New(Config{A: a, D: d, H: h, Blocks: blocks, SymmetricA: true, PartitionStarts: p.Starts}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.SetExplicit(e)
	eng.Run(5, -1, nil)
	for i, v := range eng.Beliefs() {
		if v != want[i] {
			t.Fatalf("batch belief[%d] = %v, want %v (bitwise)", i, v, want[i])
		}
	}
}

// TestPartitionStartsValidation pins the Config contract.
func TestPartitionStartsValidation(t *testing.T) {
	a := randomCSR(10, 3, 1)
	h := randomCoupling(2, 1)
	for _, starts := range [][]int{{0}, {1, 10}, {0, 5}, {0, 7, 3, 10}} {
		if _, err := New(Config{A: a, H: h, PartitionStarts: starts}, nil); err == nil {
			t.Fatalf("starts %v must be rejected", starts)
		}
	}
	eng, err := New(Config{A: a, H: h, PartitionStarts: []int{0, 4, 10}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // idempotent with partition workers
}

// rngFill fills dst with small deterministic pseudo-random values.
func rngFill(dst []float64, seed uint64) {
	x := seed*2862933555777941757 + 3037000493
	for i := range dst {
		x = x*2862933555777941757 + 3037000493
		dst[i] = float64(int64(x>>33)) / float64(1<<31) * 0.1
	}
}
