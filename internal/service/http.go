package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tempo"
	"tempo/internal/scenario"
)

// Handler returns the service's HTTP/JSON API, version 1:
//
//	POST   /v1/clusters                     create a cluster from a scenario spec
//	GET    /v1/clusters                     list resident cluster ids
//	GET    /v1/clusters/{id}                cluster status
//	DELETE /v1/clusters/{id}                drop a cluster
//	POST   /v1/clusters/{id}/tick           run one control-loop tick (serialized per cluster)
//	GET    /v1/clusters/{id}/qs             windowed QS query (?from=30m&to=1h30m)
//	POST   /v1/clusters/{id}/query          one-shot ad-hoc query (body = plan JSON)
//	GET    /v1/clusters/{id}/query/stream   standing query subscription (SSE, ?plan=<json>)
//	POST   /v1/clusters/{id}/whatif         score candidate RM configurations
//	GET    /v1/clusters/{id}/report         canonical scenario report (bit-reproducible)
//	GET    /v1/healthz                      liveness (200 while the process can serve at all)
//	GET    /v1/readyz                       readiness (503 during startup recovery and Close drain)
//	GET    /v1/metrics                      JSON counters (ticks, queries, per-shard latency quantiles)
//
// All bodies are JSON — POSTs with a body must say so in Content-Type or
// get a 415. Errors are a uniform envelope
// {"error": "...", "code": "..."} with conventional status codes (400
// malformed input, 404 unknown cluster, 409 conflicts, 413 body over
// maxBodyBytes, 415 wrong media type, 429 subscription limit, 500 a tick
// or delete failed on the server's side, 503 shed, degraded or shutting
// down); code is a stable machine-readable discriminator, error the
// human-readable detail.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/clusters", s.handleCreate)
	mux.HandleFunc("GET /v1/clusters", s.handleList)
	mux.HandleFunc("GET /v1/clusters/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/clusters/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/clusters/{id}/tick", s.handleTick)
	mux.HandleFunc("GET /v1/clusters/{id}/qs", s.handleQS)
	mux.HandleFunc("POST /v1/clusters/{id}/whatif", s.handleWhatIf)
	mux.HandleFunc("GET /v1/clusters/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/clusters/{id}/query", s.handleQuery)
	mux.HandleFunc("GET /v1/clusters/{id}/query/stream", s.handleQueryStream)
	if s.cfg.Chaos != nil {
		return s.chaosHandler(mux)
	}
	return mux
}

// chaosHandler sheds a seeded fraction of API requests with a 503
// before they reach any handler — the injected equivalent of an
// overloaded front end. Health, readiness, and metrics probes are
// exempt so orchestration keeps an honest view. A shed request never
// executes, so every endpoint stays retry-safe under injection by
// construction.
func (s *Service) chaosHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/healthz", "/v1/readyz", "/v1/metrics":
		default:
			if s.cfg.Chaos.ShedRequest() {
				s.shedRequests.add(1)
				writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
					errors.New("chaos: injected handler error"))
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// Gate is a startup readiness gate for daemons whose recovery takes
// real time: start the listener on the Gate immediately, then Set the
// real handler once service.New finishes WAL recovery. Before Set, the
// gate answers liveness 200 ("starting"), readiness 503 ("recovering"),
// and everything else 503 unavailable — so orchestration sees the
// process alive but not ready for the whole recovery window.
type Gate struct {
	h atomic.Pointer[http.Handler]
}

// NewGate returns a gate with no handler installed.
func NewGate() *Gate { return &Gate{} }

// Set installs the real handler; every subsequent request flows through
// it. Call once, when the service is ready.
func (g *Gate) Set(h http.Handler) { g.h.Store(&h) }

func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if hp := g.h.Load(); hp != nil {
		(*hp).ServeHTTP(w, r)
		return
	}
	switch r.URL.Path {
	case "/v1/healthz":
		writeJSON(w, http.StatusOK, map[string]any{"status": "starting"})
	case "/v1/readyz":
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
			errors.New("recovering: startup WAL recovery in progress"))
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
			errors.New("starting up"))
	}
}

// Error-envelope codes: the stable machine-readable half of every error
// response. Clients branch on these, never on the message text.
const (
	CodeBadRequest       = "bad_request"
	CodeInvalidPlan      = "invalid_plan"
	CodeNotFound         = "not_found"
	CodeExists           = "exists"
	CodeConflict         = "conflict"
	CodeUnavailable      = "unavailable"
	CodeUnsupportedMedia = "unsupported_media_type"
	CodeStreamLimit      = "subscription_limit"
	CodeTooLarge         = "too_large"
	// CodeInternal marks a failure on the server's side of a tick or
	// delete. The tick may be durable (logged but not applied), so it is
	// not safe to retry automatically.
	CodeInternal = "internal"
	// CodeOverloaded marks a request shed at admission (every slot taken
	// past the deadline); CodeDegraded a write refused because the
	// cluster's durable store is failing. Both guarantee no state changed,
	// so both are safe to retry after the Retry-After hint.
	CodeOverloaded = "overloaded"
	CodeDegraded   = "degraded"
)

// maxBodyBytes bounds every request body the API reads. The largest spec
// in the tree is 13 KB; the bound keeps a client from making the server
// buffer an arbitrary CreateRequest.Spec.
const maxBodyBytes = 8 << 20

// ErrorEnvelope is the uniform JSON error body.
type ErrorEnvelope struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

// writeError emits the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, ErrorEnvelope{Error: err.Error(), Code: code})
}

// errStatus maps the service's sentinel errors to (HTTP status, envelope
// code); an error matching none of them yields (0, "").
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict, CodeExists
	case errors.Is(err, tempo.ErrSessionDone):
		return http.StatusConflict, CodeConflict
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable, CodeOverloaded
	case errors.Is(err, ErrDegraded):
		return http.StatusServiceUnavailable, CodeDegraded
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, CodeUnavailable
	default:
		return 0, ""
	}
}

// writeServiceError maps and emits an error from a create or read path.
// There an error matching no sentinel is the request's own fault — a spec
// that fails to build, an inverted window — so it is a 400.
func writeServiceError(w http.ResponseWriter, err error) {
	status, code := errStatus(err)
	if code == "" {
		status, code = http.StatusBadRequest, CodeBadRequest
	}
	writeError(w, status, code, err)
}

// writeBodyError emits a failure to decode a request body: 413 when the
// body ran past maxBodyBytes, otherwise 400 with the given code.
func writeBodyError(w http.ResponseWriter, code string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, code, err)
}

// requireJSON admits a request body: it bounds it at maxBodyBytes and
// enforces Content-Type, answering 415 and returning false on violation.
// Bodyless POSTs (tick) pass.
func requireJSON(w http.ResponseWriter, r *http.Request) bool {
	if r.ContentLength == 0 {
		return true
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	ct := r.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil || mt != "application/json" {
		writeError(w, http.StatusUnsupportedMediaType, CodeUnsupportedMedia,
			fmt.Errorf("request body must be application/json, got %q", ct))
		return false
	}
	return true
}

// CreateRequest is the POST /v1/clusters body: a scenario spec plus an
// optional id (empty id defaults to the spec's name).
type CreateRequest struct {
	ID   string          `json:"id,omitempty"`
	Spec json.RawMessage `json:"spec"`
}

// CreateResponse echoes the registration.
type CreateResponse struct {
	ID         string `json:"id"`
	Shard      int    `json:"shard"`
	Tenants    int    `json:"tenants"`
	Iterations int    `json:"iterations"`
}

func (s *Service) handleCreate(w http.ResponseWriter, r *http.Request) {
	if !requireJSON(w, r) {
		return
	}
	var req CreateRequest
	if err := decodeBody(r, &req); err != nil {
		writeBodyError(w, CodeBadRequest, err)
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, errors.New("missing scenario spec"))
		return
	}
	spec, err := scenario.Load(bytes.NewReader(req.Spec))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	c, err := s.Create(req.ID, spec)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateResponse{
		ID:         c.ID,
		Shard:      c.Shard,
		Tenants:    len(spec.TenantNames()),
		Iterations: spec.Iterations,
	})
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"clusters": s.List()})
}

// StatusResponse is one cluster's GET /v1/clusters/{id} view.
type StatusResponse struct {
	ID         string `json:"id"`
	Shard      int    `json:"shard"`
	Ticks      int    `json:"ticks"`
	Iterations int    `json:"iterations"`
	Done       bool   `json:"done"`
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, StatusResponse{
		ID:         c.ID,
		Shard:      c.Shard,
		Ticks:      c.Session().Ticks(),
		Iterations: c.Session().Spec().Iterations,
		Done:       c.Session().Done(),
	})
}

func (s *Service) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Delete(r.Context(), id); err != nil {
		// The shard pin is a pure function of the id, so a shed delete gets
		// the same honest p99-derived Retry-After hint as a shed tick.
		s.writeRetryableError(w, s.shardFor(id), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// writeRetryableError maps and emits a tick or delete error, attaching a
// Retry-After hint to the retryable 503s (shed, degraded, draining) so
// backoff clients don't have to guess: the shard's p99-derived hint for
// overload, 1s for the other causes. A tick or delete carries no input
// beyond the cluster id, so an error matching no sentinel is the server's
// failure (Observe failing, a tick logged but not applied): 500, and no
// hint, because that tick may be durable.
func (s *Service) writeRetryableError(w http.ResponseWriter, shard int, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(s.shards[shard].retryAfterSeconds()))
	case errors.Is(err, ErrDegraded), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
	}
	status, code := errStatus(err)
	if code == "" {
		status, code = http.StatusInternalServerError, CodeInternal
	}
	writeError(w, status, code, err)
}

// TickResponse is one completed control interval.
type TickResponse struct {
	Iteration int       `json:"iteration"`
	Observed  []float64 `json:"observed"`
	Switched  bool      `json:"switched"`
	Reverted  bool      `json:"reverted"`
	Done      bool      `json:"done"`
}

func (s *Service) handleTick(w http.ResponseWriter, r *http.Request) {
	c, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	it, done, err := s.Tick(r.Context(), c)
	if err != nil {
		s.writeRetryableError(w, c.Shard, err)
		return
	}
	writeJSON(w, http.StatusOK, TickResponse{
		Iteration: it.Index,
		Observed:  it.Observed,
		Switched:  it.Switched,
		Reverted:  it.Reverted,
		Done:      done,
	})
}

// QSWindow is the wire form of one interval's windowed QS slice.
type QSWindow struct {
	Iteration int       `json:"iteration"`
	From      string    `json:"from"`
	To        string    `json:"to"`
	Values    []float64 `json:"values"`
}

// QSResponse answers GET /v1/clusters/{id}/qs.
type QSResponse struct {
	Objectives []string   `json:"objectives"`
	Windows    []QSWindow `json:"windows"`
}

func (s *Service) handleQS(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from, err := parseWindowBound(r.URL.Query().Get("from"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("malformed from: %w", err))
		return
	}
	to, err := parseWindowBound(r.URL.Query().Get("to"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("malformed to: %w", err))
		return
	}
	c, err := s.Get(id)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	windows, err := s.QS(c, from, to)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	resp := QSResponse{Objectives: c.Session().Objectives(), Windows: []QSWindow{}}
	for _, win := range windows {
		resp.Windows = append(resp.Windows, QSWindow{
			Iteration: win.Iteration,
			From:      win.From.String(),
			To:        win.To.String(),
			Values:    win.Values,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseWindowBound parses a qs window bound: empty means 0 (from) /
// everything-so-far (to); otherwise a Go duration string like "90m".
func parseWindowBound(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	return time.ParseDuration(s)
}

// handleQuery answers POST /v1/clusters/{id}/query: the body is the plan
// itself (see internal/query for the grammar), the response the one-shot
// result over every interval observed so far.
func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !requireJSON(w, r) {
		return
	}
	c, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	plan, err := tempo.ParseQueryPlan(r.Body)
	if err != nil {
		writeBodyError(w, CodeInvalidPlan, err)
		return
	}
	res, err := s.Query(c, plan)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidPlan, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// WhatIfRequest is the POST /v1/clusters/{id}/whatif body: candidate
// tenant configurations to score against the observed workload.
type WhatIfRequest struct {
	Capacity   int                                    `json:"capacity,omitempty"`
	Candidates []map[string]scenario.TenantConfigSpec `json:"candidates"`
}

// WhatIfResponse carries one QS vector per candidate.
type WhatIfResponse struct {
	Objectives []string    `json:"objectives"`
	Results    [][]float64 `json:"results"`
}

func (s *Service) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if !requireJSON(w, r) {
		return
	}
	id := r.PathValue("id")
	var req WhatIfRequest
	if err := decodeBody(r, &req); err != nil {
		writeBodyError(w, CodeBadRequest, err)
		return
	}
	c, err := s.Get(id)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	if len(req.Candidates) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, errors.New("no candidate configurations"))
		return
	}
	spec := c.Session().Spec()
	capacity := req.Capacity
	if capacity == 0 {
		capacity = spec.Capacity
	}
	names := spec.TenantNames()
	cfgs := make([]tempo.ClusterConfig, 0, len(req.Candidates))
	for i, cand := range req.Candidates {
		init := scenario.InitialSpec{Tenants: cand}
		cfg, err := init.Config(capacity, names)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("candidate %d: %w", i, err))
			return
		}
		cfgs = append(cfgs, cfg)
	}
	rows, err := s.WhatIf(c, cfgs)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, WhatIfResponse{Objectives: c.Session().Objectives(), Results: rows})
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	c, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	b, err := c.Session().Report().MarshalCanonical()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b) //nolint:errcheck // the connection is gone; nothing to do
}

// handleHealthz is liveness only: it answers 200 for as long as the
// process can serve at all, including the Close drain window. Routing
// decisions belong to readyz.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	clusters := len(s.clusters)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"clusters":       clusters,
		"shards":         len(s.shards),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is the routing signal: 200 while the service is
// admitting work, 503 once Close begins draining (and, behind a Gate,
// during startup WAL recovery). Liveness stays green either way.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.Ready() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
			errors.New("draining: shutting down"))
		return
	}
	s.mu.RLock()
	clusters := len(s.clusters)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "clusters": clusters})
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// decodeBody parses a JSON request body, rejecting unknown fields and
// trailing garbage so client typos fail loudly.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	if dec.More() {
		return errors.New("trailing data after request body")
	}
	return nil
}
