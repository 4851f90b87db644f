package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func testServer(t *testing.T, f *FrontEnd, cfg HTTPConfig) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(f.Handler(cfg))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// explicitRows converts a residual's explicit rows to the wire shape.
func explicitRows(p *core.Problem) []NodeRow {
	var rows []NodeRow
	for _, node := range p.Explicit.ExplicitNodes() {
		row := p.Explicit.Row(node)
		out := make([]float64, len(row))
		copy(out, row)
		rows = append(rows, NodeRow{Node: node, Belief: out})
	}
	return rows
}

// TestHTTPSolvePinsDirect: a solve over the wire returns the same
// beliefs as the direct Go call, row for row.
func TestHTTPSolvePinsDirect(t *testing.T) {
	p := testProblem(t, 150, 320, 3, 20)
	s := prepared(t, p)
	want, err := s.Solve(t.Context(), p.Explicit)
	if err != nil {
		t.Fatal(err)
	}
	f := New(s, Config{})
	defer f.Close()
	srv := testServer(t, f, HTTPConfig{})

	resp, body := postJSON(t, srv.URL+"/v1/solve", SolveRequest{Explicit: explicitRows(p)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Converged || out.Iterations == 0 {
		t.Errorf("converged=%v iterations=%d", out.Converged, out.Iterations)
	}
	if len(out.Beliefs) != p.Graph.N() {
		t.Fatalf("got %d rows, want all %d", len(out.Beliefs), p.Graph.N())
	}
	for _, row := range out.Beliefs {
		wantRow := want.Beliefs.Row(row.Node)
		for j := range wantRow {
			if math.Abs(row.Belief[j]-wantRow[j]) > 1e-12 {
				t.Fatalf("node %d class %d: %g vs direct %g", row.Node, j, row.Belief[j], wantRow[j])
			}
		}
	}

	// A nodes subset returns exactly those rows.
	resp, body = postJSON(t, srv.URL+"/v1/solve", SolveRequest{Explicit: explicitRows(p), Nodes: []int{3, 9}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subset solve status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Beliefs) != 2 || out.Beliefs[0].Node != 3 || out.Beliefs[1].Node != 9 {
		t.Errorf("subset rows = %+v, want nodes 3 and 9", out.Beliefs)
	}
}

// TestHTTPErrorMapping: each typed failure class maps onto its
// transport status, and every error body carries the taxonomy class.
func TestHTTPErrorMapping(t *testing.T) {
	p := testProblem(t, 80, 170, 3, 21)
	f := New(prepared(t, p), Config{})
	srv := testServer(t, f, HTTPConfig{MaxBody: 1 << 16})

	assertErr := func(resp *http.Response, body []byte, status int, class string) {
		t.Helper()
		if resp.StatusCode != status {
			t.Errorf("status = %d, want %d (%s)", resp.StatusCode, status, body)
		}
		var e errorJSON
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("error body not JSON: %s", body)
		}
		if e.Class != class {
			t.Errorf("class = %q, want %q (%s)", e.Class, class, e.Error)
		}
	}

	// Malformed JSON and unknown fields are 400 invalid-input.
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	assertErr(resp, raw, http.StatusBadRequest, "ErrInvalidInput")
	resp, body := postJSON(t, srv.URL+"/v1/solve", map[string]any{"surprise": 1})
	assertErr(resp, body, http.StatusBadRequest, "ErrInvalidInput")

	// A misshaped explicit row is 400 dimension-mismatch.
	resp, body = postJSON(t, srv.URL+"/v1/solve",
		SolveRequest{Explicit: []NodeRow{{Node: 2, Belief: []float64{1}}}})
	assertErr(resp, body, http.StatusBadRequest, "ErrDimensionMismatch")

	// An oversized body is 413 before any decoding.
	big := SolveRequest{Explicit: make([]NodeRow, 0, 4096)}
	for i := 0; i < 4096; i++ {
		big.Explicit = append(big.Explicit, NodeRow{Node: i % 80, Belief: []float64{0.1, 0.2, 0.3}})
	}
	resp, body = postJSON(t, srv.URL+"/v1/solve", big)
	assertErr(resp, body, http.StatusRequestEntityTooLarge, "ErrInvalidInput")

	// A starved budget is 503/504 — typed either way. Seed the
	// estimator far above the 1ms wire budget so the shed is
	// deterministic regardless of how fast this host solves.
	if _, _, err := f.Solve(t.Context(), p.Explicit); err != nil {
		t.Fatal(err)
	}
	f.est.Observe(float64(10 * time.Second))
	resp, body = postJSON(t, srv.URL+"/v1/solve", SolveRequest{Explicit: explicitRows(p), TimeoutMS: 1})
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("starved budget status = %d (%s), want 503 or 504", resp.StatusCode, body)
	}

	// Fixpoint reads before the first Update are 400 invalid-input.
	resp = getJSON(t, srv.URL+"/v1/beliefs/3", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("pre-fixpoint beliefs status = %d, want 400", resp.StatusCode)
	}

	// Degraded mode: writes are 503 degraded, readyz?require=write
	// flips unready while plain readyz keeps serving reads.
	f.degraded.Store(true)
	resp, body = postJSON(t, srv.URL+"/v1/update", UpdateRequest{})
	assertErr(resp, body, http.StatusServiceUnavailable, "ErrDegraded")
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var h healthJSON
	if resp := getJSON(t, srv.URL+"/readyz", &h); resp.StatusCode != http.StatusOK || !h.Ready || !h.Degraded {
		t.Errorf("degraded readyz = %d %+v, want 200 ready with degraded flag", resp.StatusCode, h)
	}
	if resp := getJSON(t, srv.URL+"/readyz?require=write", &h); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded readyz?require=write = %d, want 503", resp.StatusCode)
	}
	f.degraded.Store(false)

	// Closed front end: solves are 503 closed.
	f.Close()
	resp, body = postJSON(t, srv.URL+"/v1/solve", SolveRequest{Explicit: explicitRows(p)})
	assertErr(resp, body, http.StatusServiceUnavailable, "ErrClosed")
}

// TestHTTPSolveRejectsBadNodesBeforeAdmission: a solve that names a
// node outside [0, n) is a 400 invalid-input answered before admission
// — it holds no admission slot and runs no solve.
func TestHTTPSolveRejectsBadNodesBeforeAdmission(t *testing.T) {
	p := testProblem(t, 80, 170, 3, 24)
	s := prepared(t, p)
	f := New(s, Config{})
	defer f.Close()
	srv := testServer(t, f, HTTPConfig{})
	for _, node := range []int{-1, p.Graph.N()} {
		admitted, solves := f.Stats().Admitted, s.Stats()
		resp, body := postJSON(t, srv.URL+"/v1/solve", SolveRequest{Explicit: explicitRows(p), Nodes: []int{0, node}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("node %d: status %d (%s), want 400", node, resp.StatusCode, body)
		}
		var e errorJSON
		if err := json.Unmarshal(body, &e); err != nil || e.Class != "ErrInvalidInput" {
			t.Errorf("node %d: body %s, want class ErrInvalidInput", node, body)
		}
		if got := f.Stats().Admitted; got != admitted {
			t.Errorf("node %d: Admitted %d -> %d, want unchanged", node, admitted, got)
		}
		if got := s.Stats(); got.Solves != solves.Solves || got.BatchRequests != solves.BatchRequests {
			t.Errorf("node %d: solver ran %d solves and %d batched requests, want none",
				node, got.Solves-solves.Solves, got.BatchRequests-solves.BatchRequests)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHTTPUpdateAndReads: an update over the wire refreshes the
// fixpoint served by the point-lookup and top-K endpoints.
func TestHTTPUpdateAndReads(t *testing.T) {
	p := testProblem(t, 100, 220, 3, 22)
	f := New(prepared(t, p), Config{})
	defer f.Close()
	srv := testServer(t, f, HTTPConfig{})

	resp, body := postJSON(t, srv.URL+"/v1/update", UpdateRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed update status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, srv.URL+"/v1/update", UpdateRequest{
		AddEdges:    []EdgeJSON{{S: 1, T: 60, W: 1}},
		SetExplicit: []NodeRow{{Node: 4, Belief: []float64{0.4, -0.2, -0.2}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta update status %d: %s", resp.StatusCode, body)
	}
	var ur UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if !ur.Converged {
		t.Errorf("delta update did not converge: %+v", ur)
	}

	var row NodeRow
	if resp := getJSON(t, srv.URL+"/v1/beliefs/4", &row); resp.StatusCode != http.StatusOK {
		t.Fatalf("beliefs status %d", resp.StatusCode)
	}
	if row.Node != 4 || len(row.Belief) != 3 {
		t.Fatalf("beliefs row = %+v", row)
	}
	want, err := f.Beliefs(4)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if row.Belief[j] != want[j] {
			t.Fatalf("wire row %v != fixpoint row %v", row.Belief, want)
		}
	}

	var top []NodeBelief
	if resp := getJSON(t, srv.URL+"/v1/top?class=0&k=5", &top); resp.StatusCode != http.StatusOK {
		t.Fatalf("top status %d", resp.StatusCode)
	}
	if len(top) != 5 {
		t.Fatalf("top returned %d entries, want 5", len(top))
	}
	if resp := getJSON(t, srv.URL+"/v1/top?class=7&k=5", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad class status = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPHealthAndStats: liveness stays 200 through drain, readiness
// flips 503, and the stats endpoint exposes the shed counters and the
// solver's update path — epochs, commits, the five Update stage clocks,
// the iteration and residual-plane counters — advancing with a POST
// /v1/update.
func TestHTTPHealthAndStats(t *testing.T) {
	p := testProblem(t, 80, 170, 3, 23)
	f := New(prepared(t, p), Config{})
	defer f.Close()
	srv := testServer(t, f, HTTPConfig{})
	solverStats := func() map[string]any {
		t.Helper()
		var st map[string]any
		if resp := getJSON(t, srv.URL+"/statz", &st); resp.StatusCode != http.StatusOK {
			t.Fatalf("statz = %d", resp.StatusCode)
		}
		return st["solver"].(map[string]any)
	}
	before := solverStats()
	if resp, body := postJSON(t, srv.URL+"/v1/update", UpdateRequest{AddEdges: []EdgeJSON{{S: 1, T: 60, W: 1}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %s", resp.StatusCode, body)
	}
	after := solverStats()
	for _, key := range []string{"epoch", "updates", "rebuilds", "overlay_nnz", "rows_committed",
		"update_validate_ns", "update_wal_ns", "update_commit_ns", "update_resolve_ns", "update_publish_ns",
		"iterations", "not_converged", "residual_rows_relaxed", "residual_pushes", "residual_queue_peak"} {
		if _, ok := after[key]; !ok {
			t.Errorf("statz solver missing %q", key)
		}
	}
	for _, key := range []string{"updates", "epoch"} {
		if after[key].(float64) <= before[key].(float64) {
			t.Errorf("statz solver.%s %v -> %v, want it to advance", key, before[key], after[key])
		}
	}

	var h healthJSON
	if resp := getJSON(t, srv.URL+"/healthz", &h); resp.StatusCode != http.StatusOK || !h.Ready {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}
	if resp := getJSON(t, srv.URL+"/readyz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}
	if _, _, err := f.Solve(t.Context(), p.Explicit); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if resp := getJSON(t, srv.URL+"/readyz", &h); resp.StatusCode != http.StatusServiceUnavailable || h.Ready {
		t.Errorf("draining readyz = %d %+v, want 503 unready", resp.StatusCode, h)
	}
	if resp := getJSON(t, srv.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200 (alive, do not restart)", resp.StatusCode)
	}

	var st map[string]any
	if resp := getJSON(t, srv.URL+"/statz", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("statz = %d", resp.StatusCode)
	}
	for _, key := range []string{"admitted", "completed", "shed_overload", "p99_ns", "solver"} {
		if _, ok := st[key]; !ok {
			t.Errorf("statz missing %q", key)
		}
	}
	if st["admitted"].(float64) != 1 {
		t.Errorf("statz admitted = %v, want 1", st["admitted"])
	}
	if fmt.Sprint(st["solver"].(map[string]any)["method"]) != "LinBP" {
		t.Errorf("statz solver.method = %v", st["solver"])
	}
}
