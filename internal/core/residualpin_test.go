package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// residualPin is one recorded run of the bitwise-pin stream: the sha256
// of the final caller-order beliefs (float64 bits, little-endian) and
// the exact lifetime relaxation count.
type residualPin struct {
	name    string
	method  Method
	k       int
	opts    []Option
	digest  string
	relaxed int64
}

// TestResidualUpdateBitwisePin pins the residual plane's relaxation
// order, not only its tolerance budget: a fixed insert/relabel/delete
// stream through Update under ScheduleResidual at tol 1e-12 on the
// power-7 Kronecker graph must reproduce digests and relaxation counts
// recorded before the packed-threshold push. Any change to pop order
// or push arithmetic moves the digest even when every answer stays
// within 1e-9 of the fixpoint. k=3 runs the unrolled push, k=2 and
// k=5 the generic one, and FABP the scalar collapse (w=1).
func TestResidualUpdateBitwisePin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler may fuse multiply-adds on other architectures,
		// which changes the last bits (not the tolerance budget).
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	pins := []residualPin{
		{name: "linbp-k3", method: MethodLinBP, k: 3,
			digest: "b688693597e7893f4bbf7626e8d13970394b04845e01c7b7477414bb85639f1a", relaxed: 19075},
		{name: "linbp-k2", method: MethodLinBP, k: 2,
			digest: "cfec7ca4330069eb9ce810db19c72be8565908a893f4460f4d99052f3df0fde0", relaxed: 17977},
		{name: "linbp-k5", method: MethodLinBP, k: 5,
			digest: "3387431e9463e54d0c3d33530adc1b7010c460515c316f54b02378d3ad5447ed", relaxed: 19494},
		{name: "fabp", method: MethodFABP, k: 2,
			digest: "2e7a48434da33faf35d7ddaa04839bf455084a5103d37e58cdbdc05df8757c24", relaxed: 18018},
	}
	for _, pin := range pins {
		t.Run(pin.name, func(t *testing.T) {
			digest, relaxed := runPinStream(t, pin)
			if digest != pin.digest || relaxed != pin.relaxed {
				t.Errorf("final beliefs sha256 %s after %d relaxations, pinned %s after %d",
					digest, relaxed, pin.digest, pin.relaxed)
			}
		})
	}
}

// runPinStream prepares the pin's problem, runs the initial fixpoint
// and two rounds of insert 16 absent edges / relabel 16 nodes / delete
// the 16 edges, and returns the final beliefs' digest and the solver's
// relaxation count.
func runPinStream(t *testing.T, pin residualPin) (string, int64) {
	t.Helper()
	p := kronProblem(t, 7, pin.k)
	opts := append([]Option{WithSchedule(ScheduleResidual), WithTol(1e-12)}, pin.opts...)
	s, err := Prepare(p, pin.method, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	res, err := s.Update(ctx, Update{})
	if err != nil {
		t.Fatal(err)
	}
	n := p.Graph.N()
	rng := xrand.New(99)
	for round := 0; round < 2; round++ {
		edges := absentEdges(p.Graph, 16, uint64(round+1))
		labels := map[int]int{}
		for len(labels) < 16 {
			labels[rng.Intn(n)] = rng.Intn(pin.k)
		}
		for _, u := range []Update{
			{AddEdges: edges},
			{SetExplicit: labelMatrix(n, pin.k, labels)},
			{RemoveEdges: removals(edges)},
		} {
			if res, err = s.Update(ctx, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	return beliefDigest(res.Beliefs), s.Stats().ResidualRowsRelaxed
}

// removals turns edges into a RemoveEdges list (weights ignored).
func removals(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{S: e.S, T: e.T}
	}
	return out
}

// beliefDigest is the hex sha256 of b's float64 bits in row-major order.
func beliefDigest(b *beliefs.Residual) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range b.Matrix().Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
