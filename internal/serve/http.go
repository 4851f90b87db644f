// HTTP/JSON surface over the front end: the lsbpd daemon's request
// plane. Every handler enforces the same overload contract as the Go
// API — bounded bodies, server-side deadlines, and a typed error JSON
// with the taxonomy class on every rejection — so a misbehaving HTTP
// client cannot bypass admission control.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/graph"
)

// HTTPConfig bounds the HTTP surface. Zero values select defaults.
type HTTPConfig struct {
	// MaxBody caps request body bytes (default 8 MiB). Oversized
	// bodies fail with 413 before being read into memory.
	MaxBody int64
	// Timeout is the server-side ceiling on solve/update handling
	// (default 30s). A request's own timeout_ms can only shrink it.
	Timeout time.Duration
}

func (c *HTTPConfig) withDefaults() {
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
}

// NodeRow is one sparse explicit-belief row on the wire.
type NodeRow struct {
	Node   int       `json:"node"`
	Belief []float64 `json:"belief"`
}

// SolveRequest is the POST /v1/solve body: the explicit beliefs as
// sparse rows (absent nodes are non-explicit), the node ids whose
// belief rows the response should carry (all nodes when omitted —
// pass a subset on large graphs), and an optional per-request budget.
type SolveRequest struct {
	Explicit  []NodeRow `json:"explicit"`
	Nodes     []int     `json:"nodes,omitempty"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
}

// SolveResponse carries the solve diagnostics and the requested
// belief rows.
type SolveResponse struct {
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Delta      float64   `json:"delta"`
	Beliefs    []NodeRow `json:"beliefs"`
}

// EdgeJSON is one weighted undirected edge on the wire.
type EdgeJSON struct {
	S int     `json:"s"`
	T int     `json:"t"`
	W float64 `json:"w,omitempty"`
}

// UpdateRequest is the POST /v1/update body, mirroring core.Update.
type UpdateRequest struct {
	AddEdges    []EdgeJSON `json:"add_edges,omitempty"`
	RemoveEdges []EdgeJSON `json:"remove_edges,omitempty"`
	SetExplicit []NodeRow  `json:"set_explicit,omitempty"`
	TimeoutMS   int64      `json:"timeout_ms,omitempty"`
}

// UpdateResponse reports the refreshed fixpoint's diagnostics.
type UpdateResponse struct {
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Delta      float64 `json:"delta"`
}

// errorJSON is the uniform failure body: a human-readable message
// plus the machine-readable taxonomy class (errs.Classify), so load
// balancers and clients can distinguish shed-and-retry (overloaded)
// from fix-your-request (invalid-input) without parsing prose.
type errorJSON struct {
	Error string `json:"error"`
	Class string `json:"class"`
}

// Handler returns the daemon's request plane:
//
//	POST /v1/solve          one-shot solve through admission control
//	POST /v1/update         graph/belief delta into the dynamic plane
//	GET  /v1/beliefs/{node} point lookup on the published fixpoint
//	GET  /v1/top?class=&k=  top-k nodes by residual belief for a class
//	GET  /healthz           liveness: 200 while the process serves
//	GET  /readyz            readiness: 503 while draining; ?require=write
//	                        also 503 in read-only degraded mode
//	GET  /statz             the full Stats snapshot, solver counters and
//	                        update-path stage clocks included
func (f *FrontEnd) Handler(cfg HTTPConfig) http.Handler {
	cfg.withDefaults()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) { f.handleSolve(w, r, cfg) })
	mux.HandleFunc("POST /v1/update", func(w http.ResponseWriter, r *http.Request) { f.handleUpdate(w, r, cfg) })
	mux.HandleFunc("GET /v1/beliefs/{node}", f.handleBeliefs)
	mux.HandleFunc("GET /v1/top", f.handleTopK)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	mux.HandleFunc("GET /statz", f.handleStatz)
	return mux
}

func (f *FrontEnd) handleSolve(w http.ResponseWriter, r *http.Request, cfg HTTPConfig) {
	var req SolveRequest
	if !decodeBody(w, r, cfg.MaxBody, &req) {
		return
	}
	ctx, cancel := requestCtx(r.Context(), cfg.Timeout, req.TimeoutMS)
	defer cancel()

	// The whole request is checked before admission: a bad row or node
	// id costs no queue slot and no solve.
	e := beliefs.New(f.n, f.k)
	for _, row := range req.Explicit {
		if row.Node < 0 || row.Node >= f.n || len(row.Belief) != f.k {
			writeError(w, fmt.Errorf("serve: explicit row node=%d len=%d outside n=%d k=%d: %w",
				row.Node, len(row.Belief), f.n, f.k, errs.ErrDimensionMismatch))
			return
		}
		e.Set(row.Node, row.Belief)
	}
	for _, node := range req.Nodes {
		if node < 0 || node >= f.n {
			writeError(w, fmt.Errorf("serve: requested node %d out of range [0,%d): %w", node, f.n, errs.ErrInvalidInput))
			return
		}
	}
	dst, info, err := f.Solve(ctx, e)
	if err != nil && !(errors.Is(err, errs.ErrNotConverged) && dst != nil) {
		writeError(w, err)
		return
	}
	nodes := req.Nodes
	if nodes == nil {
		nodes = make([]int, f.n)
		for i := range nodes {
			nodes[i] = i
		}
	}
	resp := SolveResponse{Iterations: info.Iterations, Converged: info.Converged, Delta: info.Delta}
	resp.Beliefs = make([]NodeRow, 0, len(nodes))
	for _, node := range nodes {
		row := dst.Row(node)
		out := make([]float64, len(row))
		copy(out, row)
		resp.Beliefs = append(resp.Beliefs, NodeRow{Node: node, Belief: out})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (f *FrontEnd) handleUpdate(w http.ResponseWriter, r *http.Request, cfg HTTPConfig) {
	var req UpdateRequest
	if !decodeBody(w, r, cfg.MaxBody, &req) {
		return
	}
	ctx, cancel := requestCtx(r.Context(), cfg.Timeout, req.TimeoutMS)
	defer cancel()

	u := core.Update{}
	for _, e := range req.AddEdges {
		u.AddEdges = append(u.AddEdges, graph.Edge{S: e.S, T: e.T, W: e.W})
	}
	for _, e := range req.RemoveEdges {
		u.RemoveEdges = append(u.RemoveEdges, graph.Edge{S: e.S, T: e.T, W: e.W})
	}
	if len(req.SetExplicit) > 0 {
		se := beliefs.New(f.n, f.k)
		for _, row := range req.SetExplicit {
			if row.Node < 0 || row.Node >= f.n || len(row.Belief) != f.k {
				writeError(w, fmt.Errorf("serve: set_explicit row node=%d len=%d outside n=%d k=%d: %w",
					row.Node, len(row.Belief), f.n, f.k, errs.ErrDimensionMismatch))
				return
			}
			se.Set(row.Node, row.Belief)
		}
		u.SetExplicit = se
	}
	res, err := f.Update(ctx, u)
	if err != nil && !(errors.Is(err, errs.ErrNotConverged) && res != nil) {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{Iterations: res.Iterations, Converged: res.Converged, Delta: res.Delta})
}

func (f *FrontEnd) handleBeliefs(w http.ResponseWriter, r *http.Request) {
	node, err := strconv.Atoi(r.PathValue("node"))
	if err != nil {
		writeError(w, fmt.Errorf("serve: node id %q: %w", r.PathValue("node"), errs.ErrInvalidInput))
		return
	}
	row, err := f.Beliefs(node)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, NodeRow{Node: node, Belief: row})
}

func (f *FrontEnd) handleTopK(w http.ResponseWriter, r *http.Request) {
	class, err := strconv.Atoi(r.URL.Query().Get("class"))
	if err != nil {
		writeError(w, fmt.Errorf("serve: class %q: %w", r.URL.Query().Get("class"), errs.ErrInvalidInput))
		return
	}
	k := 10
	if s := r.URL.Query().Get("k"); s != "" {
		if k, err = strconv.Atoi(s); err != nil {
			writeError(w, fmt.Errorf("serve: k %q: %w", s, errs.ErrInvalidInput))
			return
		}
	}
	top, err := f.TopK(class, k)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, top)
}

// healthJSON is the /healthz and /readyz body.
type healthJSON struct {
	Ready    bool `json:"ready"`
	Degraded bool `json:"degraded"`
	Draining bool `json:"draining"`
}

func (f *FrontEnd) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: a draining or degraded front end is still alive and
	// must not be restarted by the supervisor — that would turn a
	// graceful shutdown or a read-only incident into an outage.
	writeJSON(w, http.StatusOK, healthJSON{Ready: !f.Draining(), Degraded: f.Degraded(), Draining: f.Draining()})
}

func (f *FrontEnd) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := healthJSON{Degraded: f.Degraded(), Draining: f.Draining()}
	h.Ready = !h.Draining
	if r.URL.Query().Has("require") && r.URL.Query().Get("require") == "write" && h.Degraded {
		// A write-path client (the update ingester) must be routed
		// away while the durable plane is broken; read traffic keeps
		// landing here.
		h.Ready = false
	}
	status := http.StatusOK
	if !h.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (f *FrontEnd) handleStatz(w http.ResponseWriter, r *http.Request) {
	st := f.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"admitted":          st.Admitted,
		"completed":         st.Completed,
		"shed_overload":     st.ShedOverload,
		"shed_budget":       st.ShedBudget,
		"shed_draining":     st.ShedDraining,
		"rejected_invalid":  st.RejectedInvalid,
		"expired":           st.Expired,
		"panics":            st.Panics,
		"retried_singleton": st.RetriedSingleton,
		"degraded_writes":   st.DegradedWrites,
		"degraded":          st.Degraded,
		"draining":          st.Draining,
		"queue_len":         st.QueueLen,
		"in_flight":         st.InFlight,
		"est_batch_ns":      int64(st.EstBatch),
		"p50_ns":            int64(st.P50),
		"p99_ns":            int64(st.P99),
		"solver": map[string]any{
			"method":                st.Solver.Method.String(),
			"n":                     st.Solver.N,
			"k":                     st.Solver.K,
			"solves":                st.Solver.Solves,
			"batches":               st.Solver.Batches,
			"cancelled":             st.Solver.Cancelled,
			"batch_hint":            st.Solver.BatchHint,
			"degraded":              st.Solver.Degraded,
			"iterations":            st.Solver.Iterations,
			"not_converged":         st.Solver.NotConverged,
			"residual_rows_relaxed": st.Solver.ResidualRowsRelaxed,
			"residual_pushes":       st.Solver.ResidualPushes,
			"residual_queue_peak":   st.Solver.ResidualQueuePeak,
			"epoch":                 st.Solver.Epoch,
			"updates":               st.Solver.Updates,
			"rebuilds":              st.Solver.Rebuilds,
			"overlay_nnz":           st.Solver.OverlayNNZ,
			"rows_committed":        st.Solver.RowsCommitted,
			"update_validate_ns":    st.Solver.UpdateValidateNS,
			"update_wal_ns":         st.Solver.UpdateWALNS,
			"update_commit_ns":      st.Solver.UpdateCommitNS,
			"update_resolve_ns":     st.Solver.UpdateResolveNS,
			"update_publish_ns":     st.Solver.UpdatePublishNS,
		},
	})
}

// decodeBody reads a bounded JSON body; false means the response has
// been written.
func decodeBody(w http.ResponseWriter, r *http.Request, maxBody int64, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorJSON{Error: fmt.Sprintf("serve: body over %d bytes", tooBig.Limit), Class: "ErrInvalidInput"})
			return false
		}
		writeJSON(w, http.StatusBadRequest,
			errorJSON{Error: "serve: malformed request body: " + err.Error(), Class: "ErrInvalidInput"})
		return false
	}
	return true
}

// requestCtx applies the server ceiling and the request's own (only
// smaller) budget.
func requestCtx(parent context.Context, ceiling time.Duration, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := ceiling
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return context.WithTimeout(parent, d)
}

// httpStatus maps the typed failure classes onto transport semantics:
// shedding and lifecycle rejections are 503 (retry elsewhere/later),
// burned deadlines are 504, caller mistakes are 400, confined panics
// are 500. Anything untyped would also land on 500 — the
// TestEveryShedPathIsTyped gate keeps that path dead.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, errs.ErrOverloaded),
		errors.Is(err, errs.ErrDeadlineBudget),
		errors.Is(err, errs.ErrDraining),
		errors.Is(err, errs.ErrDegraded),
		errors.Is(err, errs.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, errs.ErrDimensionMismatch),
		errors.Is(err, errs.ErrInvalidInput),
		errors.Is(err, errs.ErrNonFinite):
		return http.StatusBadRequest
	case errors.Is(err, errs.ErrNotConverged):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	status := httpStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorJSON{Error: err.Error(), Class: errs.Classify(err)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
