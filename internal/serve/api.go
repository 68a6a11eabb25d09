package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
)

// maxBodyBytes bounds any request body, the defense against unbounded
// reads. A /v1/dehin body is then counted against the snippet limits as
// it is decoded (readDehin), so entities and links past them are not
// stored.
const maxBodyBytes = 1 << 20

// errResponse is the uniform error body. Epoch is present whenever the
// error was answered from a live snapshot (e.g. unknown user), so even
// failures are attributable to an epoch.
type errResponse struct {
	Error string `json:"error"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// riskResponse answers /v1/risk: the privacy risk 1/k of one user at one
// distance, where k is the user's signature class size (Definition 7).
type riskResponse struct {
	Epoch     uint64  `json:"epoch"`
	User      int32   `json:"user"`
	Label     string  `json:"label,omitempty"`
	Distance  int     `json:"distance"`
	ClassSize int32   `json:"class_size"`
	Risk      float64 `json:"risk"`
}

// topkResponse answers /v1/topk: the k most identifiable users (smallest
// signature class, ties by id) at one distance.
type topkResponse struct {
	Epoch    uint64      `json:"epoch"`
	Distance int         `json:"distance"`
	K        int         `json:"k"`
	Users    []topkEntry `json:"users"`
}

type topkEntry struct {
	User      int32   `json:"user"`
	Label     string  `json:"label,omitempty"`
	ClassSize int32   `json:"class_size"`
	Risk      float64 `json:"risk"`
}

// snapshotResponse answers /v1/snapshot and successful /v1/reload: the
// current epoch's provenance and precomputed dataset risk per distance.
type snapshotResponse struct {
	Epoch          uint64    `json:"epoch"`
	Source         string    `json:"source"`
	Users          int       `json:"users"`
	Edges          int64     `json:"edges"`
	MaxDistance    int       `json:"max_distance"`
	AttackDistance int       `json:"attack_distance"`
	LinkTypes      []string  `json:"link_types"`
	DatasetRisk    []float64 `json:"dataset_risk"`
}

// dehinEntity is one entity of a posted auxiliary snippet. Attrs are
// positional against the entity type's declared attributes; Sets name the
// type's set attributes (e.g. "tags").
type dehinEntity struct {
	Type  string             `json:"type"`
	Label string             `json:"label,omitempty"`
	Attrs []int64            `json:"attrs"`
	Sets  map[string][]int32 `json:"sets,omitempty"`
}

// dehinLink is one directed edge of a posted snippet. Strength 0 means 1
// (the only legal strength for unweighted link types).
type dehinLink struct {
	Type     string `json:"type"`
	From     int    `json:"from"`
	To       int    `json:"to"`
	Strength int32  `json:"strength,omitempty"`
}

// dehinRequest is the /v1/dehin body: a small target-network snippet (the
// attacker's view of an anonymized neighborhood) plus the index of the
// entity to de-anonymize against the served graph.
type dehinRequest struct {
	Target   int           `json:"target"`
	Entities []dehinEntity `json:"entities"`
	Links    []dehinLink   `json:"links"`
}

// dehinResponse answers /v1/dehin: the candidate entities of the served
// (auxiliary) graph that the DeHIN attack cannot distinguish from the
// posted target. Unique means the attack pinned exactly one identity.
type dehinResponse struct {
	Epoch      uint64       `json:"epoch"`
	Candidates int          `json:"candidates"`
	Unique     bool         `json:"unique"`
	Matches    []dehinMatch `json:"matches"`
	Truncated  bool         `json:"truncated,omitempty"`
}

type dehinMatch struct {
	User  int32  `json:"user"`
	Label string `json:"label,omitempty"`
}

// Register mounts the /v1 API on mux (typically the obs operational mux,
// so /metrics and /debug ride along). Method routing uses Go 1.22 mux
// patterns; wrong-method requests get the stdlib 405.
func (s *Server) Register(mux *http.ServeMux) {
	if s == nil || mux == nil {
		return
	}
	mux.HandleFunc("GET /v1/risk", s.handle("risk", s.handleRisk))
	mux.HandleFunc("GET /v1/topk", s.handle("topk", s.handleTopK))
	mux.HandleFunc("POST /v1/dehin", s.handle("dehin", s.handleDehin))
	mux.HandleFunc("GET /v1/snapshot", s.handle("snapshot", s.handleSnapshot))
	mux.HandleFunc("GET /v1/healthz", s.handle("healthz", s.handleHealthz))
	mux.HandleFunc("POST /v1/reload", s.handle("reload", s.handleReload))
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
}

// endpointMetrics are one endpoint's pre-resolved handles: registry
// lookups take a mutex, so the per-request path must not perform any.
// The code counters cover every status the handlers emit.
type endpointMetrics struct {
	latency *obs.Histogram
	codes   map[int]*obs.Counter
	other   *obs.Counter
}

func (s *Server) newEndpointMetrics(name string) endpointMetrics {
	m := s.cfg.Metrics
	em := endpointMetrics{
		latency: m.Histogram("serve_request_ns", "endpoint", name),
		codes:   make(map[int]*obs.Counter),
	}
	if m == nil {
		return em
	}
	for _, code := range []int{200, 400, 404, 413, 429, 500, 503} {
		em.codes[code] = m.Counter("serve_requests_total",
			"endpoint", name, "code", strconv.Itoa(code))
	}
	em.other = m.Counter("serve_requests_total", "endpoint", name, "code", "other")
	return em
}

func (em endpointMetrics) observe(code int) {
	if c, ok := em.codes[code]; ok {
		c.Inc()
		return
	}
	em.other.Inc()
}

// handle wraps an endpoint body with the cross-cutting concerns: request
// body capping, latency histogram, status counters, the flight
// recorder's per-request span tree, and JSON encoding of whatever
// (status, body) the endpoint returns. The endpoint receives the request
// plus its flight recording handle (nil when the recorder is off; every
// method on it no-ops).
func (s *Server) handle(name string, fn func(r *http.Request, fr *trace.FlightReq) (int, any)) http.HandlerFunc {
	em := s.newEndpointMetrics(name)
	spanName := "serve." + name
	return func(w http.ResponseWriter, r *http.Request) {
		tm := em.latency.Time()
		fr := s.flight.StartRequest(r.Method, r.URL.Path, r.URL.RawQuery)
		root := fr.Root(spanName)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		code, body := fn(r, fr)
		es := root.Child("encode")
		writeJSON(w, code, body)
		es.End()
		root.Attr("code", int64(code))
		if fr.Finish(code) {
			s.met.flightCap.Inc()
		}
		tm.Stop()
		em.observe(code)
	}
}

// handleDebugRequests serves the flight recorder's retained requests:
// deterministic text by default (append ?durations=1 for wall times,
// x/net/trace style), or the JSON export with ?format=json. 404 when no
// recorder is configured, so scrapes can tell "off" from "empty".
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s == nil || s.flight == nil {
		http.Error(w, `{"error":"flight recorder disabled"}`, http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	if q.Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = s.flight.WriteJSON(w) //hin:allow errdrop -- a failed debug-response write is the client's problem
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.flight.WriteText(w, trace.TreeOptions{Durations: q.Get("durations") == "1"}) //hin:allow errdrop -- a failed debug-response write is the client's problem
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	buf, err := json.Marshal(body)
	if err != nil {
		// Response types are plain data; a marshal failure is a
		// programming error, answered as a bare 500.
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(buf, '\n')) //hin:allow errdrop -- the status is already written; a failed body write has no remedy
}

// queryInt parses an integer query parameter, with def when absent.
func queryInt(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: not an integer", name)
	}
	return v, nil
}

// distanceParam parses the shared distance parameter (default: the
// server's MaxDistance — the most identifying view).
func (s *Server) distanceParam(q url.Values) (int, error) {
	d, err := queryInt(q, "distance", s.cfg.MaxDistance)
	if err != nil {
		return 0, err
	}
	if d < 0 || d > s.cfg.MaxDistance {
		return 0, fmt.Errorf("parameter \"distance\": out of range [0, %d]", s.cfg.MaxDistance)
	}
	return d, nil
}

func (s *Server) handleRisk(r *http.Request, fr *trace.FlightReq) (int, any) {
	sn, err := s.acquire()
	if err != nil {
		return http.StatusServiceUnavailable, errResponse{Error: err.Error()}
	}
	defer s.release(sn)
	fr.SetEpoch(sn.epoch)

	q := r.URL.Query()
	d, err := s.distanceParam(q)
	if err != nil {
		return http.StatusBadRequest, errResponse{Error: err.Error(), Epoch: sn.epoch}
	}
	if q.Get("user") == "" {
		return http.StatusBadRequest, errResponse{Error: `parameter "user": required`, Epoch: sn.epoch}
	}
	user, err := queryInt(q, "user", 0)
	if err != nil {
		return http.StatusBadRequest, errResponse{Error: err.Error(), Epoch: sn.epoch}
	}
	if user < 0 || user >= sn.g.NumEntities() {
		return http.StatusNotFound, errResponse{Error: fmt.Sprintf("unknown user %d", user), Epoch: sn.epoch}
	}
	k := sn.class[d][user]
	return http.StatusOK, riskResponse{
		Epoch:     sn.epoch,
		User:      int32(user),
		Label:     sn.g.Label(hin.EntityID(user)),
		Distance:  d,
		ClassSize: k,
		Risk:      1 / float64(k),
	}
}

func (s *Server) handleTopK(r *http.Request, fr *trace.FlightReq) (int, any) {
	sn, err := s.acquire()
	if err != nil {
		return http.StatusServiceUnavailable, errResponse{Error: err.Error()}
	}
	defer s.release(sn)
	fr.SetEpoch(sn.epoch)

	q := r.URL.Query()
	d, err := s.distanceParam(q)
	if err != nil {
		return http.StatusBadRequest, errResponse{Error: err.Error(), Epoch: sn.epoch}
	}
	k, err := queryInt(q, "k", 10)
	if err != nil {
		return http.StatusBadRequest, errResponse{Error: err.Error(), Epoch: sn.epoch}
	}
	if k <= 0 {
		return http.StatusBadRequest, errResponse{Error: `parameter "k": must be positive`, Epoch: sn.epoch}
	}
	if k > s.cfg.MaxTopK {
		return http.StatusRequestEntityTooLarge, errResponse{
			Error: fmt.Sprintf(`parameter "k": %d exceeds limit %d`, k, s.cfg.MaxTopK), Epoch: sn.epoch}
	}
	order := sn.order[d]
	if k > len(order) {
		k = len(order)
	}
	resp := topkResponse{Epoch: sn.epoch, Distance: d, K: k, Users: make([]topkEntry, k)}
	for i := 0; i < k; i++ {
		v := order[i]
		c := sn.class[d][v]
		resp.Users[i] = topkEntry{
			User:      v,
			Label:     sn.g.Label(hin.EntityID(v)),
			ClassSize: c,
			Risk:      1 / float64(c),
		}
	}
	return http.StatusOK, resp
}

func (s *Server) handleSnapshot(r *http.Request, fr *trace.FlightReq) (int, any) {
	sn, err := s.acquire()
	if err != nil {
		return http.StatusServiceUnavailable, errResponse{Error: err.Error()}
	}
	defer s.release(sn)
	fr.SetEpoch(sn.epoch)
	return http.StatusOK, s.snapshotInfo(sn)
}

// healthzResponse answers /v1/healthz: whether a snapshot is being
// served, its epoch, and the snapshot's age in seconds. Load balancers
// and hinload -wait-ready poll this; 503 until the first load lands.
type healthzResponse struct {
	Status string  `json:"status"`
	Epoch  uint64  `json:"epoch,omitempty"`
	AgeS   float64 `json:"age_s"`
	Error  string  `json:"error,omitempty"`
}

func (s *Server) handleHealthz(r *http.Request, fr *trace.FlightReq) (int, any) {
	sn, err := s.acquire()
	if err != nil {
		return http.StatusServiceUnavailable, healthzResponse{Status: "unavailable", Error: err.Error()}
	}
	defer s.release(sn)
	fr.SetEpoch(sn.epoch)
	age := time.Since(sn.loadedAt).Seconds()
	s.met.snapAge.Set(int64(age))
	return http.StatusOK, healthzResponse{Status: "ok", Epoch: sn.epoch, AgeS: age}
}

func (s *Server) snapshotInfo(sn *snapshot) snapshotResponse {
	schema := sn.g.Schema()
	lts := make([]string, len(sn.linkTypes))
	for i, lt := range sn.linkTypes {
		lts[i] = schema.LinkType(lt).Name
	}
	return snapshotResponse{
		Epoch:          sn.epoch,
		Source:         sn.source,
		Users:          sn.g.NumEntities(),
		Edges:          sn.g.NumEdgesTotal(),
		MaxDistance:    s.cfg.MaxDistance,
		AttackDistance: s.cfg.AttackDistance,
		LinkTypes:      lts,
		DatasetRisk:    sn.risk,
	}
}

// reloadRequest is the optional /v1/reload body; an absent or empty
// source re-opens the current snapshot's file.
type reloadRequest struct {
	Source string `json:"source"`
}

func (s *Server) handleReload(r *http.Request, fr *trace.FlightReq) (int, any) {
	var req reloadRequest
	// An empty or whitespace-only body, of any declared length, is an
	// empty request: the decoder answers io.EOF for it.
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		return http.StatusBadRequest, errResponse{Error: "malformed body: " + err.Error(), Epoch: s.Epoch()}
	}
	ls := fr.Span("load")
	err := s.Reload(req.Source)
	ls.End()
	if err != nil {
		return http.StatusInternalServerError, errResponse{Error: err.Error(), Epoch: s.Epoch()}
	}
	sn, err := s.acquire()
	if err != nil {
		return http.StatusServiceUnavailable, errResponse{Error: err.Error()}
	}
	defer s.release(sn)
	fr.SetEpoch(sn.epoch)
	return http.StatusOK, s.snapshotInfo(sn)
}

// errAttackBusy is the admission-control rejection; handlers map it
// to 429.
var errAttackBusy = errors.New("serve: attack capacity exhausted")

// admitAttack bounds concurrent /v1/dehin work: MaxAttackInFlight slots
// execute, up to MaxAttackQueue requests wait for one, and everything
// beyond that is rejected immediately so a burst degrades to fast 429s
// instead of an unbounded goroutine pile-up. The queue-depth and
// in-flight gauges expose the pressure to scrapes.
func (s *Server) admitAttack(ctx context.Context) (release func(), err error) {
	select {
	case s.attackSlots <- struct{}{}:
	default:
		q := s.queued.Add(1)
		if q > int64(s.cfg.MaxAttackQueue) {
			s.queued.Add(-1)
			s.met.rejected.Inc()
			return nil, errAttackBusy
		}
		s.met.queueDepth.Set(q)
		select {
		case s.attackSlots <- struct{}{}:
			s.met.queueDepth.Set(s.queued.Add(-1))
		case <-ctx.Done():
			s.met.queueDepth.Set(s.queued.Add(-1))
			return nil, ctx.Err()
		}
	}
	s.met.inflight.Inc()
	return func() {
		s.met.inflight.Dec()
		<-s.attackSlots
	}, nil
}

func (s *Server) handleDehin(r *http.Request, fr *trace.FlightReq) (int, any) {
	ds := fr.Span("decode")
	req, entities, links, err := readDehin(r.Body, s.cfg.MaxSnippetEntities, s.cfg.MaxSnippetEdges)
	ds.End()
	if err != nil {
		return http.StatusBadRequest, errResponse{Error: "malformed body: " + err.Error(), Epoch: s.Epoch()}
	}
	if entities == 0 {
		return http.StatusBadRequest, errResponse{Error: "snippet has no entities", Epoch: s.Epoch()}
	}
	if entities > s.cfg.MaxSnippetEntities {
		return http.StatusRequestEntityTooLarge, errResponse{
			Error: fmt.Sprintf("snippet has %d entities, limit %d", entities, s.cfg.MaxSnippetEntities),
			Epoch: s.Epoch()}
	}
	if links > s.cfg.MaxSnippetEdges {
		return http.StatusRequestEntityTooLarge, errResponse{
			Error: fmt.Sprintf("snippet has %d links, limit %d", links, s.cfg.MaxSnippetEdges),
			Epoch: s.Epoch()}
	}
	if req.Target < 0 || req.Target >= entities {
		return http.StatusBadRequest, errResponse{
			Error: fmt.Sprintf("target %d out of range [0, %d)", req.Target, entities),
			Epoch: s.Epoch()}
	}

	as := fr.Span("admission")
	release, err := s.admitAttack(r.Context())
	as.End()
	if err != nil {
		if errors.Is(err, errAttackBusy) {
			return http.StatusTooManyRequests, errResponse{Error: err.Error(), Epoch: s.Epoch()}
		}
		return http.StatusServiceUnavailable, errResponse{Error: err.Error(), Epoch: s.Epoch()}
	}
	defer release()

	sn, err := s.acquire()
	if err != nil {
		return http.StatusServiceUnavailable, errResponse{Error: err.Error()}
	}
	defer s.release(sn)
	fr.SetEpoch(sn.epoch)

	ss := fr.Span("snippet")
	target, err := buildSnippet(sn.g.Schema(), &req)
	ss.End()
	if err != nil {
		return http.StatusBadRequest, errResponse{Error: err.Error(), Epoch: sn.epoch}
	}
	qs := fr.Span("attack")
	cands := sn.attack.DeanonymizeSpan(target, hin.EntityID(req.Target), qs)
	qs.Attr("candidates", int64(len(cands)))
	qs.End()
	resp := dehinResponse{
		Epoch:      sn.epoch,
		Candidates: len(cands),
		Unique:     len(cands) == 1,
	}
	if len(cands) > s.cfg.MaxCandidates {
		cands = cands[:s.cfg.MaxCandidates]
		resp.Truncated = true
	}
	resp.Matches = make([]dehinMatch, len(cands))
	for i, v := range cands {
		resp.Matches[i] = dehinMatch{User: int32(v), Label: sn.g.Label(v)}
	}
	return http.StatusOK, resp
}

// buildSnippet materializes a posted snippet as an in-memory graph over
// the served schema. Everything the Builder would panic on is validated
// here first, so malformed snippets come back as 400s.
func buildSnippet(schema *hin.Schema, req *dehinRequest) (*hin.Graph, error) {
	b := hin.NewBuilder(schema)
	for i, e := range req.Entities {
		t, ok := schema.EntityTypeID(e.Type)
		if !ok {
			return nil, fmt.Errorf("entity %d: unknown entity type %q", i, e.Type)
		}
		decl := schema.EntityType(t)
		if len(e.Attrs) != len(decl.Attrs) {
			return nil, fmt.Errorf("entity %d: type %q takes %d attrs, got %d",
				i, e.Type, len(decl.Attrs), len(e.Attrs))
		}
		// Nothing reads a snippet's labels: matches carry auxiliary ones.
		id := b.AddEntity(t, e.Label, e.Attrs...)
		// Sorted, so that the error names the smallest unknown set.
		names := make([]string, 0, len(e.Sets))
		for name := range e.Sets {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			if schema.SetAttrIndex(t, name) < 0 {
				return nil, fmt.Errorf("entity %d: type %q has no set attribute %q", i, e.Type, name)
			}
			b.SetSet(name, id, e.Sets[name])
		}
	}
	for i, l := range req.Links {
		lt, ok := schema.LinkTypeID(l.Type)
		if !ok {
			return nil, fmt.Errorf("link %d: unknown link type %q", i, l.Type)
		}
		if l.From < 0 || l.From >= len(req.Entities) || l.To < 0 || l.To >= len(req.Entities) {
			return nil, fmt.Errorf("link %d: endpoint out of range [0, %d)", i, len(req.Entities))
		}
		w := l.Strength
		if w == 0 {
			w = 1
		}
		if err := b.AddEdge(lt, hin.EntityID(l.From), hin.EntityID(l.To), w); err != nil {
			return nil, fmt.Errorf("link %d: %v", i, err)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("snippet: %v", err)
	}
	return g, nil
}
